"""Shared fixtures and builders for the test suite.

The builders construct small in-memory datasets by hand so tests can pin
exact arithmetic, while the session-scoped synthetic fixtures exercise the
generator end to end without repeating the (comparatively slow) generation
in every test module.
"""

from __future__ import annotations

import pytest

from routerlab.cascade import vote_weight
from routerlab.io import SyntheticParams, generate_synthetic
from routerlab.records import (
    DatasetProfile,
    LlmOutcome,
    PricingSchedule,
    QuestionRecord,
    SampleRecord,
)

# ---------------------------------------------------------------------------
# hand-built record helpers


def make_sample(
    answer="a",
    correct=True,
    tokens=50,
    confidence=None,
    refusal=False,
):
    return SampleRecord(
        answer=None if refusal else answer,
        correct=False if refusal else correct,
        tokens=tokens,
        confidence_level=confidence,
        refusal=refusal,
    )


def make_ladder(accuracy_tenths, tokens=50, refusal_tokens=10):
    """Ten confidence-tagged samples answering at levels <= accuracy_tenths/10.

    Answering samples are correct; levels above the accuracy refuse. This is
    the shape the confidence-trained sampler produces for a well-calibrated
    question.
    """
    samples = []
    for i in range(1, 11):
        level = i / 10
        if i <= accuracy_tenths:
            samples.append(make_sample("a", True, tokens, level))
        else:
            samples.append(
                make_sample(tokens=refusal_tokens, confidence=level, refusal=True)
            )
    return samples


def make_question(
    qid="q1",
    input_tokens=100,
    samples=None,
    pre_score=0.5,
    llm_tokens=300,
    llm_correct=True,
    with_llm=True,
):
    if samples is None:
        samples = [make_sample() for _ in range(10)]
    llm = LlmOutcome(correct=llm_correct, tokens=llm_tokens) if with_llm else None
    return QuestionRecord(
        id=qid,
        input_tokens=input_tokens,
        slm_samples=tuple(samples),
        pre_score=pre_score,
        llm=llm,
    )


def sc_votes(answers, tokens=None):
    """Untagged samples with the given answers; None means a refusal."""
    if tokens is None:
        tokens = [50] * len(answers)
    out = []
    for ans, tok in zip(answers, tokens):
        if ans is None:
            out.append(make_sample(tokens=tok, refusal=True))
        else:
            out.append(make_sample(ans, ans == "a", tok))
    return out


def reference_vote(samples, alpha, tau):
    """``(accepted, answer, share)`` of the weighted vote, tallied apart
    from the cascade code.

    Sums each answer's vote weight in sample order, puts refusal weight
    in the total only, and breaks ties by the lowest answer. Untagged
    samples vote with weight 1.0.
    """
    mass = {}
    total = 0.0
    for s in samples:
        weight = 1.0 if s.confidence_level is None else vote_weight(s.confidence_level, alpha)
        total += weight
        if s.answer is not None:
            mass[s.answer] = mass.get(s.answer, 0.0) + weight
    if not mass:
        return 0.0 >= tau, None, 0.0
    answer = min(mass, key=lambda a: (-mass[a], a))
    share = mass[answer] / total
    return share >= tau, answer, share


def uniform_cost_question(qid, n_correct, rng, input_tokens=120, sample_tokens=60):
    """A question whose per-unit costs match every sibling built the same way.

    All questions share input_tokens and per-sample tokens, so the only thing
    that varies across the dataset is accuracy (and the routing score). The
    LLM answer length may vary freely because costing uses the dataset mean.
    """
    samples = []
    for i in range(10):
        if i < n_correct:
            samples.append(make_sample("a", True, sample_tokens))
        else:
            samples.append(make_sample("b", False, sample_tokens))
    rng.shuffle(samples)
    return QuestionRecord(
        id=qid,
        input_tokens=input_tokens,
        slm_samples=tuple(samples),
        pre_score=rng.random(),
        llm=LlmOutcome(correct=True, tokens=rng.randrange(50, 500)),
    )


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture
def pricing():
    return PricingSchedule()


@pytest.fixture(scope="session")
def synth_rcv():
    questions = generate_synthetic(120, seed=7, params=SyntheticParams(scheme="rcv"))
    return questions, DatasetProfile.from_questions(questions)


@pytest.fixture(scope="session")
def synth_sc():
    questions = generate_synthetic(
        120, seed=7, params=SyntheticParams(scheme="sc", n_samples=10)
    )
    return questions, DatasetProfile.from_questions(questions)


@pytest.fixture(scope="session")
def synth_fcv():
    questions = generate_synthetic(
        120, seed=7, params=SyntheticParams(scheme="fcv", n_samples=10)
    )
    return questions, DatasetProfile.from_questions(questions)


# ---------------------------------------------------------------------------
# acceptance reporting: every acceptance test records one line, and the
# terminal summary replays them so the pass/fail verdicts survive pytest's
# output capture.

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_log():
    def record(number, passed, detail):
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d}: {verdict} - {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
