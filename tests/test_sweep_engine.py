"""Properties of the sort-once threshold-sweep engine.

The sweeps and the golden curve sum prefix and suffix columns in score
order; ``route_pre`` and ``route_cascade`` decide each (question, tau)
cell on their own and stay the reference they are checked against.
Settings are derandomized so every run draws the same examples.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routerlab.cascade import route_cascade, sweep_cascade
from routerlab.costs import _sweep, average_quality, normalized_cascade_cost, normalized_pre_cost
from routerlab.io import SyntheticParams, generate_synthetic
from routerlab.metrics import golden_curve
from routerlab.prerouting import route_pre, sweep_pre
from routerlab.records import (
    DEFAULT_TAUS,
    SCHEMES,
    CurvePoint,
    DatasetProfile,
    LlmOutcome,
    PricingSchedule,
    QuestionRecord,
    ValidationError,
    normalize_taus,
)

from conftest import make_ladder, make_question, make_sample

PRICING = PricingSchedule()
REL_TOL = 1e-12
DETERMINISTIC = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Pre scores either sit exactly on a grid threshold or anywhere in [0, 1].
pre_scores = st.one_of(st.sampled_from(DEFAULT_TAUS), st.floats(0.0, 1.0))


@st.composite
def datasets(draw, schemes=SCHEMES):
    """(scheme, k, questions): a small dataset replayable by ``scheme``.

    Answers come from a three-way pool with "a" correct, so vote shares
    often tie a grid threshold exactly; about one question in four
    refuses at every sample.
    """
    scheme = draw(st.sampled_from(schemes))
    k = 10 if scheme == "rcv" else draw(st.integers(1, 5))
    questions = []
    for i in range(draw(st.integers(1, 8))):
        all_refuse = draw(st.integers(0, 3)) == 0
        samples = []
        for j in range(k):
            answer = None if all_refuse else draw(st.sampled_from([None, "a", "b", "c"]))
            samples.append(
                make_sample(
                    answer=answer,
                    correct=answer == "a",
                    tokens=draw(st.integers(1, 300)),
                    confidence={"rcv": (j + 1) / 10, "fcv": 1.0, "sc": None}[scheme],
                    refusal=answer is None,
                )
            )
        questions.append(
            QuestionRecord(
                id=f"q{i:02d}",
                input_tokens=draw(st.integers(1, 500)),
                slm_samples=tuple(samples),
                pre_score=draw(pre_scores),
                llm=LlmOutcome(correct=draw(st.booleans()), tokens=draw(st.integers(1, 500))),
            )
        )
    return scheme, k, questions


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL)


def assert_ends_at_llm_only(points, questions, assume_perfect):
    """The curve ends at the all-LLM reference: cost exactly 1.0, every
    question routed, and the large model's accuracy as performance."""
    end = points[-1]
    assert (end.label, end.cost, end.n_routed) == ("llm_only", 1.0, len(questions))
    if assume_perfect:
        assert end.performance == 1.0
    else:
        assert end.performance == sum(q.llm.correct for q in questions) / len(questions)


def assert_curve_matches_oracle(points, questions, profile, route, normalize, assume_perfect):
    """Every grid point, and the slm_only point (nothing routes at tau=0),
    equals the per-question oracle."""
    assert_ends_at_llm_only(points, questions, assume_perfect)
    for point in points[:-1]:
        tau = 0.0 if point.label == "slm_only" else point.tau
        outcomes = [route(q, tau, assume_perfect) for q in questions]
        assert point.n_routed == sum(1 for o in outcomes if o.routed)
        assert close(point.cost, normalize(outcomes, profile, PRICING))
        assert close(point.performance, average_quality(outcomes))


def assert_matches_oracle(sweep, perfect_sweep, questions, profile, route, normalize, assume_perfect):
    """Both curves of ``sweep`` equal the oracle, and its assume-perfect
    twin is exactly the curve of ``perfect_sweep``, the same sweep run
    with ``assume_perfect=True``."""
    assert_curve_matches_oracle(
        sweep.points, questions, profile, route, normalize, assume_perfect
    )
    assert_curve_matches_oracle(
        sweep.perfect_points, questions, profile, route, normalize, True
    )
    assert perfect_sweep.points == sweep.perfect_points


def assert_same_curve(a, b):
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert (p.tau, p.label, p.n_routed) == (q.tau, q.label, q.n_routed)
        assert close(p.cost, q.cost)
        assert close(p.performance, q.performance)


@DETERMINISTIC
@given(datasets(), st.booleans())
def test_cascade_sweep_matches_route_cascade(data, assume_perfect):
    scheme, k, questions = data
    profile = DatasetProfile.from_questions(questions)

    def sweep(perfect):
        return sweep_cascade(
            questions, profile, PRICING, scheme=scheme, k=k, assume_perfect=perfect
        )

    def route(question, tau, perfect):
        return route_cascade(
            question, tau, profile, PRICING, scheme=scheme, k=k, assume_perfect=perfect
        )

    assert_matches_oracle(
        sweep(assume_perfect), sweep(True), questions, profile, route,
        normalized_cascade_cost, assume_perfect,
    )


@DETERMINISTIC
@given(datasets(schemes=("rcv",)), st.sampled_from(["pre", "refusal"]), st.booleans())
def test_pre_sweep_matches_route_pre(data, score_source, assume_perfect):
    _, _, questions = data
    profile = DatasetProfile.from_questions(questions)

    def sweep(perfect):
        return sweep_pre(
            questions, profile, PRICING, score_source=score_source, assume_perfect=perfect
        )

    def route(question, tau, perfect):
        return route_pre(question, tau, profile, PRICING, score_source, perfect)

    assert_matches_oracle(
        sweep(assume_perfect), sweep(True), questions, profile, route,
        normalized_pre_cost, assume_perfect,
    )


@DETERMINISTIC
@given(datasets(), st.integers(0, 2**32 - 1))
def test_curves_do_not_depend_on_question_order(data, seed):
    scheme, k, questions = data
    shuffled = list(questions)
    random.Random(seed).shuffle(shuffled)
    profile = DatasetProfile.from_questions(questions)
    for run, assume_perfect in (
        (lambda qs: sweep_cascade(qs, profile, PRICING, scheme=scheme, k=k).points, False),
        (lambda qs: sweep_pre(qs, profile, PRICING).points, False),
        (lambda qs: golden_curve(qs, profile, PRICING), True),
    ):
        points = run(questions)
        assert_ends_at_llm_only(points, questions, assume_perfect)
        assert_same_curve(points, run(shuffled))


@st.composite
def engine_rows(draw):
    """(rows, profile, taus): engine rows for 1-8 questions, with route
    qualities 0.0 or 1.0 as the sweeps make them, and a threshold grid or
    None for one point per cut."""
    n = draw(st.integers(1, 8))
    ids = [f"q{i:02d}" for i in range(n)]
    costs = st.floats(0.0, 1e-3)
    rows = [
        (
            draw(pre_scores),
            qid,
            draw(costs),
            draw(st.floats(0.0, 1.0)),
            draw(costs),
            draw(st.sampled_from([0.0, 1.0])),
        )
        for qid in ids
    ]
    profile = DatasetProfile(
        ids=tuple(ids),
        input_tokens=tuple(draw(st.integers(1, 500)) for _ in ids),
        avg_llm_tokens=float(draw(st.integers(1, 500))),
        n_with_llm=n,
    )
    taus = draw(st.one_of(st.none(), st.just(DEFAULT_TAUS), st.lists(pre_scores, min_size=1)))
    return rows, profile, None if taus is None else normalize_taus(taus)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(engine_rows())
def test_twin_is_the_sweep_of_perfect_rows(data):
    """The assume-perfect twin equals a sweep of the same rows with every
    route quality 1.0, and it is the curve itself exactly when every
    route quality already is 1.0."""
    rows, profile, taus = data
    points, perfect_points = _sweep(rows, profile, PRICING, taus)
    perfect_rows = [row[:5] + (1.0,) for row in rows]
    perfect, perfect_twin = _sweep(perfect_rows, profile, PRICING, taus)
    assert perfect_points == perfect
    assert perfect_twin is perfect
    assert (perfect_points is points) == all(row[5] == 1.0 for row in rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(engine_rows())
def test_points_are_the_constructors_points(data):
    """Points stored from checked columns equal, and repr as, the points
    the constructor makes of the same values."""
    rows, profile, taus = data
    points, perfect_points = _sweep(rows, profile, PRICING, taus)
    for point in points + perfect_points:
        built = CurvePoint(
            cost=point.cost,
            performance=point.performance,
            tau=point.tau,
            label=point.label,
            n_routed=point.n_routed,
        )
        assert point == built
        assert repr(point) == repr(built)


TWO = DatasetProfile(ids=("a", "b"), input_tokens=(5, 7), avg_llm_tokens=3.0, n_with_llm=2)


@pytest.mark.parametrize("taus", [None, (0.5,)], ids=["cuts", "grid"])
@pytest.mark.parametrize(
    "rows, message",
    [
        # Keep quality 1.5 passes at the first point, (1.5 + 0.0) / 2, and
        # fails at the second, which routes "a": (1.5 + 1.0) / 2.
        (
            [(0.1, "a", 0.0, 0.0, 0.0, 1.0), (0.9, "b", 0.0, 1.5, 0.0, 0.0)],
            "performance must lie in [0, 1], got 1.25",
        ),
        # A nan route cost first counts at the point that routes "a".
        (
            [(0.1, "a", 0.0, 0.0, math.nan, 1.0), (0.9, "b", 0.0, 0.0, 0.0, 0.0)],
            "cost must be a finite number, got nan",
        ),
    ],
    ids=["performance_above_one", "nan_cost"],
)
def test_failing_column_raises_the_constructors_error(rows, message, taus):
    with pytest.raises(ValidationError) as caught:
        _sweep(rows, TWO, PRICING, taus)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "ids", [("a", "a"), ("a", "b", "b")], ids=["one_missing", "all_present"]
)
def test_rows_repeating_an_id_do_not_cover_the_profile(ids):
    rows = [(0.5, qid, 0.0, 0.0, 0.0, 1.0) for qid in ids]
    with pytest.raises(ValidationError) as caught:
        _sweep(rows, TWO, PRICING)
    assert str(caught.value) == (
        f"questions do not match the profiled dataset ({len(ids)} questions vs 2 profiled)"
    )


@pytest.mark.parametrize(
    "build", [sweep_cascade, sweep_pre, golden_curve], ids=["cascade", "pre", "golden"]
)
def test_empty_dataset_rejected(build):
    profile = DatasetProfile(ids=("a",), input_tokens=(5,), avg_llm_tokens=3.0, n_with_llm=1)
    with pytest.raises(ValidationError) as caught:
        build([], profile, PRICING)
    assert str(caught.value) == "cannot sweep an empty dataset"


def _one_without_llm():
    """A question with no LLM record, profiled beside one that has one."""
    without = make_question("x", samples=make_ladder(10), with_llm=False)
    beside = make_question("y", samples=make_ladder(10))
    return [without], DatasetProfile.from_questions([without, beside])


def _none_with_llm():
    """A dataset without LLM records, whose LLM costs are undefined."""
    questions = generate_synthetic(20, seed=1, params=SyntheticParams(include_llm=False))
    return questions, DatasetProfile.from_questions(questions)


@pytest.mark.parametrize("dataset", [_one_without_llm, _none_with_llm], ids=["one", "all"])
@pytest.mark.parametrize("route", [route_pre, route_cascade], ids=["pre", "cascade"])
def test_references_read_the_llm_record_only_to_escalate(route, dataset):
    """At tau 0 no question escalates, so neither reference reads the
    LLM record: a question without one is kept, even in a dataset with
    no LLM records at all."""
    questions, profile = dataset()
    for question in questions:
        outcome = route(question, 0.0, profile, PRICING)
        assert outcome.routed is False
        assert outcome.llm_cost == 0.0
