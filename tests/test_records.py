"""Record validation, canonicalization, and frozen-record invariants."""

import copy
import json
import math
import pickle

import pytest

from routerlab import io, records, trainset
from routerlab.cascade import select_samples, sweep_cascade
from routerlab.io import SyntheticParams, load_pricing, parse_question
from routerlab.prerouting import sweep_pre
from routerlab.records import (
    CONFIDENCE_LEVELS,
    DEFAULT_TAUS,
    REJECTION_TEXT,
    CurvePoint,
    DatasetProfile,
    LatencyReport,
    LlmOutcome,
    MetricsReport,
    PreferencePair,
    PricingSchedule,
    QuestionRecord,
    RefusalExample,
    RoutingOutcome,
    SampleRecord,
    SweepResult,
    ValidationError,
    canonical_answer,
    normalize_taus,
    refusal_prompt,
    snap_confidence,
)
from routerlab.trainset import LossTerms, ResponseSample, TrainingQuestion

from conftest import make_ladder, make_question, make_sample


class TestCanonicalization:
    def test_strip_and_casefold(self):
        assert canonical_answer("  Four ") == "four"
        assert canonical_answer("A") == canonical_answer("a ")

    def test_empty_answer_rejected(self):
        with pytest.raises(ValidationError):
            canonical_answer("   ")

    def test_snap_exact_grid(self):
        for i, level in enumerate(CONFIDENCE_LEVELS, start=1):
            assert snap_confidence(level) == i / 10

    def test_snap_absorbs_float_noise(self):
        # 0.1 + 0.2 != 0.3 in binary, but it is within the snap tolerance.
        assert snap_confidence(0.1 + 0.2) == 0.3

    def test_snap_rejects_off_grid(self):
        with pytest.raises(ValidationError):
            snap_confidence(0.45)
        with pytest.raises(ValidationError):
            snap_confidence(0.0)

    def test_levels_and_taus(self):
        assert CONFIDENCE_LEVELS == tuple(i / 10 for i in range(1, 11))
        assert DEFAULT_TAUS == tuple(i / 10 for i in range(0, 11))


class TestNormalizeTaus:
    def test_sorts_and_dedupes(self):
        assert normalize_taus([0.9, 0.1, 0.9, 0.5]) == (0.1, 0.5, 0.9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            normalize_taus([0.5, 1.5])
        with pytest.raises(ValidationError):
            normalize_taus([-0.1])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            normalize_taus([])

    @pytest.mark.parametrize(
        "tau, shown",
        [
            (None, "None"),
            ("x", "'x'"),
            ([0.5], "[0.5]"),
            (10**400, "1" + "0" * 400),
            ("0.5", "'0.5'"),
            (True, "True"),
            (False, "False"),
        ],
        ids=["none", "text", "list", "huge", "str", "true", "false"],
    )
    def test_rejects_non_numbers(self, tau, shown):
        message = f"thresholds must be numbers in [0, 1], got {shown}"
        with pytest.raises(ValidationError) as excinfo:
            normalize_taus([0.5, tau])
        assert str(excinfo.value) == message

    def test_accepts_ints_and_floats(self):
        assert normalize_taus([1, 0, 0.5]) == (0.0, 0.5, 1.0)
        assert all(type(tau) is float for tau in normalize_taus([1, 0]))

    @pytest.mark.parametrize("mode", ["pre", "cascade"])
    def test_sweeps_raise_validation_error(self, synth_rcv, pricing, mode):
        questions, profile = synth_rcv
        with pytest.raises(ValidationError, match="thresholds must be numbers"):
            if mode == "pre":
                sweep_pre(questions, profile, pricing, [0.5, None], "refusal")
            else:
                sweep_cascade(questions, profile, pricing, [0.5, "x"], scheme="rcv")

    @pytest.mark.parametrize("tau, shown", [("0.6", "'0.6'"), (True, "True")], ids=["str", "bool"])
    @pytest.mark.parametrize("where", ["pre", "cascade", "latency_tau"])
    def test_sweeps_reject_str_and_bool(self, synth_rcv, pricing, where, tau, shown):
        questions, profile = synth_rcv
        with pytest.raises(ValidationError) as excinfo:
            if where == "pre":
                sweep_pre(questions, profile, pricing, [0.5, tau], "refusal")
            elif where == "cascade":
                sweep_cascade(questions, profile, pricing, [0.5, tau], scheme="rcv")
            else:
                sweep_cascade(questions, profile, pricing, [0.5], scheme="rcv", latency_tau=tau)
        assert str(excinfo.value) == f"thresholds must be numbers in [0, 1], got {shown}"


class TestRefusalPrompt:
    def test_prefix_template_bit_exact(self):
        for level in CONFIDENCE_LEVELS:
            assert (
                refusal_prompt(level, "")
                == f"Please respond with a confidence level of {level:.1f}: "
            )

    @pytest.mark.parametrize("threshold, shown", [(0.15, "0.1"), (0.05, "0.1"), (1, "1.0")])
    def test_off_grid_and_int_thresholds_keep_their_text(self, threshold, shown):
        expected = f"Please respond with a confidence level of {shown}: "
        assert refusal_prompt(threshold, "") == expected

    def test_prompt_joins_with_single_space(self):
        assert (
            refusal_prompt(0.7, "What is 2+2?")
            == "Please respond with a confidence level of 0.7: What is 2+2?"
        )

    def test_rejection_text_constant(self):
        assert REJECTION_TEXT == "Sorry, I can't answer that."


class TestPricingSchedule:
    def test_defaults(self):
        p = PricingSchedule()
        assert (p.slm_in, p.slm_out, p.llm_in, p.llm_out) == (
            0.02,
            0.08,
            0.275,
            1.10,
        )

    def test_leg_ratios_exact(self):
        p = PricingSchedule()
        assert p.llm_in / p.slm_in == 13.75
        assert p.llm_out / p.slm_out == 13.75

    def test_positive_prices_required(self):
        with pytest.raises(ValidationError):
            PricingSchedule(slm_in=0.0)
        with pytest.raises(ValidationError):
            PricingSchedule(llm_out=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_prices_rejected(self, value):
        with pytest.raises(ValidationError, match="slm_in must be a finite number"):
            PricingSchedule(slm_in=value)

    def test_dict_round_trip(self, tmp_path):
        p = PricingSchedule(slm_in=0.01, slm_out=0.05, llm_in=0.2, llm_out=0.9)
        path = tmp_path / "pricing.json"
        path.write_text(json.dumps(p.to_dict()), encoding="utf-8")
        assert load_pricing(str(path)) == p


class TestSampleRecord:
    def test_answer_canonicalized(self):
        s = SampleRecord(answer=" Four ", correct=True, tokens=3)
        assert s.answer == "four"

    def test_refusal_clears_answer_and_correct(self):
        s = SampleRecord(answer=None, correct=False, tokens=8, refusal=True)
        assert s.answer is None and s.correct is False

    def test_refusal_with_answer_rejected(self):
        with pytest.raises(ValidationError):
            SampleRecord(answer="a", correct=False, tokens=8, refusal=True)

    def test_answer_required_unless_refusal(self):
        with pytest.raises(ValidationError):
            SampleRecord(answer=None, correct=False, tokens=8)

    def test_tokens_positive(self):
        with pytest.raises(ValidationError):
            SampleRecord(answer="a", correct=True, tokens=0)

    def test_confidence_snapped(self):
        s = SampleRecord(answer="a", correct=True, tokens=3, confidence_level=0.1 + 0.2)
        assert s.confidence_level == 0.3

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ValidationError):
            SampleRecord(answer="a", correct=True, tokens=True)


class TestQuestionRecord:
    def test_requires_samples(self):
        with pytest.raises(ValidationError):
            make_question(samples=[])

    def test_pre_score_range(self):
        with pytest.raises(ValidationError):
            make_question(pre_score=1.2)
        assert make_question(pre_score=None).pre_score is None

    def test_same_answer_must_agree_on_correctness(self):
        samples = [make_sample("a", True), make_sample("a", False)]
        with pytest.raises(ValidationError):
            make_question(samples=samples)

    def test_canonically_equal_answers_conflict(self):
        samples = [make_sample("A ", True), make_sample("a", False)]
        with pytest.raises(ValidationError):
            make_question(samples=samples)

    def test_llm_must_be_an_llm_outcome(self):
        with pytest.raises(ValidationError) as excinfo:
            QuestionRecord("q", 5, [make_sample("a", True)], llm={"correct": True, "tokens": 3})
        assert str(excinfo.value) == "question 'q': llm must be an LlmOutcome"

    def test_samples_stored_as_a_tuple(self):
        samples = [make_sample("a", True), make_sample("b", False)]
        question = QuestionRecord(id="q", input_tokens=5, slm_samples=samples)
        assert question.slm_samples == tuple(samples)

    @pytest.mark.parametrize("samples", [5, None, 0.5], ids=["int", "none", "float"])
    def test_samples_not_iterable_rejected(self, samples):
        with pytest.raises(ValidationError) as excinfo:
            QuestionRecord("q", 5, samples)
        assert str(excinfo.value) == "question 'q': slm_samples must hold SampleRecord values"

    def test_single_sample_not_in_a_list_rejected(self):
        with pytest.raises(ValidationError, match="slm_samples must hold SampleRecord values"):
            QuestionRecord("q", 5, make_sample("a", True))

    def test_non_record_item_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            QuestionRecord("q", 5, [make_sample("a", True), {"answer": "b"}])
        assert str(excinfo.value) == "question 'q': slm_samples must hold SampleRecord values"

    def test_round_trip(self):
        q = make_question(samples=make_ladder(6))
        assert parse_question(q.to_dict()) == q

    def test_round_trip_without_llm(self):
        q = make_question(with_llm=False, pre_score=None)
        assert parse_question(q.to_dict()) == q


class TestConfidenceLadder:
    """The ladder that ``select_samples(q, "rcv")`` replays."""

    def test_orders_by_level(self):
        q = make_question(samples=list(reversed(make_ladder(4))))
        ladder = select_samples(q, "rcv")
        assert [s.confidence_level for s in ladder] == [i / 10 for i in range(1, 11)]

    def test_missing_level_rejected(self):
        samples = make_ladder(4)[:9]
        q = make_question(samples=samples)
        with pytest.raises(ValidationError) as excinfo:
            select_samples(q, "rcv")
        assert str(excinfo.value) == (
            "question 'q1': no sample at confidence 1.0; ladder replay needs the full ladder"
        )

    def test_duplicate_level_rejected(self):
        samples = make_ladder(4)[:9] + [make_sample("a", True, 5, 0.5)]
        q = make_question(samples=samples)
        with pytest.raises(ValidationError) as excinfo:
            select_samples(q, "rcv")
        assert str(excinfo.value) == (
            "question 'q1': several samples at confidence 0.5; ladder replay needs one per level"
        )

    def test_untagged_rejected(self):
        q = make_question()
        with pytest.raises(ValidationError) as excinfo:
            select_samples(q, "rcv")
        assert str(excinfo.value) == (
            "question 'q1': no sample at confidence 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, "
            "0.8, 0.9, 1.0; ladder replay needs the full ladder"
        )


class TestDatasetProfile:
    def test_sorted_ids_and_llm_average(self):
        qs = [
            make_question("b", llm_tokens=400),
            make_question("a", llm_tokens=200),
            make_question("c", with_llm=False),
        ]
        profile = DatasetProfile.from_questions(qs)
        assert profile.ids == ("a", "b", "c")
        assert profile.avg_llm_tokens == 300.0
        assert profile.n_with_llm == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            DatasetProfile.from_questions([make_question("a"), make_question("a")])

    def test_duplicate_report_scales_to_large_datasets(self):
        samples = (make_sample(),)
        qs = [make_question(f"q{i:05d}", samples=samples) for i in range(20_000)]
        qs.append(make_question("q12345", samples=samples))
        with pytest.raises(ValidationError) as caught:
            DatasetProfile.from_questions(qs)
        assert str(caught.value) == "duplicate question ids: q12345"

    def test_duplicate_report_names_first_five_sorted(self):
        ids = ["g", "c", "a", "f", "e", "b", "g", "c", "a", "f", "e", "b", "a", "d"]
        with pytest.raises(ValidationError) as caught:
            DatasetProfile.from_questions([make_question(i) for i in ids])
        assert str(caught.value) == "duplicate question ids: a, b, c, e, f"

    @pytest.mark.parametrize(
        "ids, message",
        [
            (("b", "a"), "profile ids must be sorted"),
            (("a", "b", "b"), "profile ids must be unique"),
            (("a", "a", "b", "c", "b"), "profile ids must be sorted"),
            (("b", "b", "a"), "profile ids must be sorted"),
        ],
        ids=["unsorted", "duplicate", "duplicate_then_unsorted", "unsorted_after_duplicate"],
    )
    def test_ids_must_be_strictly_increasing(self, ids, message):
        with pytest.raises(ValidationError) as caught:
            DatasetProfile(ids=ids, input_tokens=(1,) * len(ids), avg_llm_tokens=None, n_with_llm=0)
        assert str(caught.value) == message

    def test_sorted_unique_ids_accepted(self):
        profile = DatasetProfile(ids=("a", "b", "c"), input_tokens=(1, 2, 3), avg_llm_tokens=None, n_with_llm=0)
        assert profile.ids == ("a", "b", "c")

    def test_no_llm_anywhere(self):
        profile = DatasetProfile.from_questions([make_question("a", with_llm=False)])
        assert profile.avg_llm_tokens is None
        assert profile.n_with_llm == 0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            DatasetProfile.from_questions([])

    @pytest.mark.parametrize("avg", [math.nan, math.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_llm_average_rejected(self, avg):
        with pytest.raises(ValidationError, match="avg_llm_tokens must be positive"):
            DatasetProfile(ids=("a",), input_tokens=(5,), avg_llm_tokens=avg, n_with_llm=1)

    @pytest.mark.parametrize(
        "ids, input_tokens, n_with_llm, message",
        [
            (("a", "b"), (5,), 0, "profile ids and input_tokens must align"),
            ((), (), 0, "profile requires at least one question"),
            (("a",), (5,), 2, "n_with_llm out of range"),
            (("a",), (5,), -1, "n_with_llm out of range"),
        ],
        ids=["misaligned", "empty", "llm_count_above", "llm_count_below"],
    )
    def test_bad_shape_rejected(self, ids, input_tokens, n_with_llm, message):
        with pytest.raises(ValidationError) as caught:
            DatasetProfile(ids=ids, input_tokens=input_tokens, avg_llm_tokens=None, n_with_llm=n_with_llm)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "avg, n_with_llm, message",
        [
            ("5", 1, "avg_llm_tokens must be a number, got '5'"),
            (True, 1, "avg_llm_tokens must be a number, got True"),
            (10**400, 1, "avg_llm_tokens is too large for a float, got an integer of 1329 bits"),
            (5.0, "1", "n_with_llm must be an integer, got '1'"),
            (5.0, True, "n_with_llm must be an integer, got True"),
            (5.0, 1.0, "n_with_llm must be an integer, got 1.0"),
        ],
        ids=["string_avg", "bool_avg", "huge_int_avg", "string_count", "bool_count", "float_count"],
    )
    def test_non_number_fields_rejected(self, avg, n_with_llm, message):
        with pytest.raises(ValidationError) as caught:
            DatasetProfile(ids=("a",), input_tokens=(5,), avg_llm_tokens=avg, n_with_llm=n_with_llm)
        assert str(caught.value) == message

    def test_int_average_stored_as_given(self):
        profile = DatasetProfile(ids=("a",), input_tokens=(5,), avg_llm_tokens=5, n_with_llm=1)
        assert type(profile.avg_llm_tokens) is int and profile.avg_llm_tokens == 5

    @pytest.mark.parametrize(
        "ids, input_tokens, message",
        [
            (("a",), ("x",), "input_tokens[0] must be an integer, got 'x'"),
            (("a", "b"), (1, True), "input_tokens[1] must be an integer, got True"),
            (("a", "b"), (1, 2.0), "input_tokens[1] must be an integer, got 2.0"),
            (("a", "b"), (1, 0), "input_tokens[1] must be >= 1, got 0"),
            (("a", 1), (1, 2), "ids[1] must be a non-empty string, got 1"),
            (("", "a"), (1, 2), "ids[0] must be a non-empty string, got ''"),
            (
                ("a", "\ud800"), (1, 2),
                "ids[1] holds a lone surrogate U+D800 at index 0, which UTF-8 cannot encode",
            ),
            (("b", "a"), ("x", 1), "input_tokens[0] must be an integer, got 'x'"),
            (("b", 1), ("x", 2), "ids[1] must be a non-empty string, got 1"),
        ],
        ids=[
            "string_count", "bool_count", "float_count", "zero_count", "int_id", "empty_id",
            "lone_surrogate_id", "count_before_order", "id_before_count",
        ],
    )
    def test_bad_items_rejected_before_the_order_check(self, ids, input_tokens, message):
        with pytest.raises(ValidationError) as caught:
            DatasetProfile(ids=ids, input_tokens=input_tokens, avg_llm_tokens=None, n_with_llm=0)
        assert str(caught.value) == message

    def test_non_ascii_ids_accepted(self):
        profile = DatasetProfile(ids=("a", "é"), input_tokens=(1, 2), avg_llm_tokens=None, n_with_llm=0)
        assert profile.ids == ("a", "é")


class TestRoutingOutcome:
    def test_unrouted_cannot_carry_llm_cost(self):
        with pytest.raises(ValidationError):
            RoutingOutcome(
                question_id="q",
                mode="pre",
                routed=False,
                slm_cost=1e-6,
                llm_cost=1e-6,
                quality=1.0,
                decision_latency_tokens=0,
                accepted_answer="a",
            )

    def test_routed_cannot_carry_accepted_answer(self):
        with pytest.raises(ValidationError):
            RoutingOutcome(
                question_id="q",
                mode="cascade",
                routed=True,
                slm_cost=1e-6,
                llm_cost=1e-6,
                quality=1.0,
                decision_latency_tokens=5,
                accepted_answer="a",
            )

    def test_pre_latency_must_be_zero(self):
        with pytest.raises(ValidationError):
            RoutingOutcome(
                question_id="q",
                mode="pre",
                routed=False,
                slm_cost=1e-6,
                llm_cost=0.0,
                quality=1.0,
                decision_latency_tokens=3,
                accepted_answer="a",
            )

    @pytest.mark.parametrize("name", ["quality", "slm_cost", "llm_cost"])
    def test_nan_rejected(self, name):
        fields = dict(
            question_id="q",
            mode="cascade",
            routed=True,
            slm_cost=1e-6,
            llm_cost=1e-6,
            quality=1.0,
            decision_latency_tokens=5,
        )
        fields[name] = float("nan")
        with pytest.raises(ValidationError, match=f"{name} must be a finite number"):
            RoutingOutcome(**fields)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("mode", "golden", "mode must be 'pre' or 'cascade', got 'golden'"),
            ("quality", 1.5, "quality must lie in [0, 1], got 1.5"),
            ("quality", -0.5, "quality must lie in [0, 1], got -0.5"),
            ("slm_cost", -1.0, "slm_cost must be >= 0, got -1.0"),
            ("llm_cost", -1.0, "llm_cost must be >= 0, got -1.0"),
        ],
    )
    def test_out_of_range_rejected(self, name, value, message):
        fields = dict(
            question_id="q",
            mode="cascade",
            routed=True,
            slm_cost=1e-6,
            llm_cost=1e-6,
            quality=1.0,
            decision_latency_tokens=5,
        )
        fields[name] = value
        with pytest.raises(ValidationError) as caught:
            RoutingOutcome(**fields)
        assert str(caught.value) == message

    def test_cascade_latency_must_be_positive(self):
        with pytest.raises(ValidationError):
            RoutingOutcome(
                question_id="q",
                mode="cascade",
                routed=False,
                slm_cost=1e-6,
                llm_cost=0.0,
                quality=1.0,
                decision_latency_tokens=0,
                accepted_answer="a",
            )


class TestCurvePoint:
    def test_grid_point(self):
        p = CurvePoint(cost=0.4, performance=0.8, tau=0.5, n_routed=3)
        assert p.label is None

    def test_endpoint_labels(self):
        CurvePoint(cost=1.0, performance=0.9, label="llm_only", n_routed=5)
        CurvePoint(cost=0.1, performance=0.6, label="slm_only", n_routed=0)

    def test_tau_and_label_exclusive(self):
        with pytest.raises(ValidationError):
            CurvePoint(cost=0.4, performance=0.8, tau=0.5, label="slm_only", n_routed=0)

    def test_bare_point_is_legal(self):
        # hindsight-curve interior points carry neither a threshold nor a label
        p = CurvePoint(cost=0.4, performance=0.8, n_routed=3)
        assert p.tau is None and p.label is None

    def test_cost_may_exceed_one(self):
        # cascades can overspend the all-LLM reference
        p = CurvePoint(cost=1.3, performance=1.0, tau=1.0, n_routed=9)
        assert p.cost == 1.3

    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            CurvePoint(cost=-0.1, performance=0.5, tau=0.5, n_routed=0)
        with pytest.raises(ValidationError):
            CurvePoint(cost=0.5, performance=1.1, tau=0.5, n_routed=0)
        with pytest.raises(ValidationError):
            CurvePoint(cost=0.5, performance=0.5, label="midpoint", n_routed=0)
        with pytest.raises(ValidationError, match="cost must be a finite number"):
            CurvePoint(cost=float("nan"), performance=0.5, tau=0.5, n_routed=0)
        with pytest.raises(ValidationError, match="performance must be a finite number"):
            CurvePoint(cost=0.5, performance=float("nan"), tau=0.5, n_routed=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("cost", math.inf, "cost must be a finite number, got inf"),
            ("cost", True, "cost must be a number, got True"),
            ("performance", -math.inf, "performance must be a finite number, got -inf"),
            ("tau", math.nan, "tau must be a finite number, got nan"),
            ("tau", 1.5, "tau must lie in [0, 1], got 1.5"),
            ("n_routed", -1, "n_routed must be >= 0, got -1"),
            ("n_routed", False, "n_routed must be an integer, got False"),
            ("n_routed", 10**400, "n_routed is too large for a float"),
        ],
        ids=lambda value: repr(value)[:20],
    )
    def test_values_outside_the_inline_tests_reach_the_helpers(self, field, value, message):
        values = {"cost": 0.5, "performance": 0.5, "tau": 0.5, "n_routed": 1, field: value}
        with pytest.raises(ValidationError) as caught:
            CurvePoint(**values)
        assert str(caught.value).startswith(message)

    def test_integers_become_floats(self):
        p = CurvePoint(cost=1, performance=0, tau=1, n_routed=3)
        assert (p.cost, p.performance, p.tau) == (1.0, 0.0, 1.0)
        assert type(p.cost) is type(p.performance) is type(p.tau) is float


class TestMetricsReport:
    def test_toga_is_toa_minus_half(self):
        r = MetricsReport(toa=0.75, agl=10.0, arol=20.0, mode="actual")
        assert r.toga == 0.25
        assert r.toga100 is None

    def test_to_dict_has_stable_keys(self):
        r = MetricsReport(toa=0.75, agl=10.0, arol=20.0, mode="actual")
        assert set(r.to_dict()) == {
            "toa",
            "toga",
            "toa100",
            "toga100",
            "togr",
            "agl",
            "arol",
            "mode",
        }
        assert r.to_dict()["toa100"] is None

    def test_mode_validated(self):
        with pytest.raises(ValidationError):
            MetricsReport(toa=0.5, agl=0.0, arol=0.0, mode="typical")

    @pytest.mark.parametrize("name", ["toa", "agl", "arol", "toa100", "togr"])
    def test_non_finite_values_rejected(self, name):
        values = dict(toa=0.5, agl=0.0, arol=0.0, mode="actual")
        values[name] = float("nan")
        with pytest.raises(ValidationError, match=f"{name} must be a finite number"):
            MetricsReport(**values)

    @pytest.mark.parametrize("name", ["agl", "arol"])
    def test_negative_latency_rejected(self, name):
        values = dict(toa=0.5, agl=0.0, arol=0.0, mode="actual")
        values[name] = -1.0
        with pytest.raises(ValidationError) as caught:
            MetricsReport(**values)
        assert str(caught.value) == f"{name} must be >= 0, got -1.0"


class TestPreferencePair:
    def test_accepts_strict_ratio(self):
        pair = PreferencePair(
            question_id="q",
            chosen="t",
            chosen_tokens=80,
            rejected="u",
            rejected_tokens=150,
        )
        assert pair.rejected_tokens == 150

    def test_boundary_is_rejected(self):
        # exactly 1.5x is not enough; the margin must be strict
        with pytest.raises(ValidationError):
            PreferencePair(
                question_id="q",
                chosen="t",
                chosen_tokens=100,
                rejected="u",
                rejected_tokens=150,
            )

    def test_to_dict_uses_id_key(self):
        pair = PreferencePair(
            question_id="q",
            chosen="t",
            chosen_tokens=80,
            rejected="u",
            rejected_tokens=150,
        )
        assert pair.to_dict()["id"] == "q"


class TestRefusalExample:
    def test_prompt_must_carry_prefix(self):
        RefusalExample(
            question_id="q",
            threshold=0.3,
            prompt=refusal_prompt(0.3, "why?"),
            target="because",
        )
        with pytest.raises(ValidationError):
            RefusalExample(
                question_id="q",
                threshold=0.3,
                prompt="why?",
                target="because",
            )

    def test_threshold_snapped(self):
        ex = RefusalExample(
            question_id="q",
            threshold=0.1 + 0.2,
            prompt=refusal_prompt(0.3, "why?"),
            target=REJECTION_TEXT,
        )
        assert ex.threshold == 0.3


class TestLoneSurrogate:
    """A string UTF-8 cannot encode is rejected where it enters, by field."""

    def test_sample_answer(self):
        with pytest.raises(
            ValidationError,
            match="^answer holds a lone surrogate U\\+D800 at index 1, which UTF-8 cannot encode$",
        ):
            SampleRecord(answer="x\ud800", correct=True, tokens=3)

    @pytest.mark.parametrize("field", ["question_id", "chosen", "rejected"])
    def test_pair_field(self, field):
        values = dict(
            question_id="q", chosen="t", chosen_tokens=8, rejected="u", rejected_tokens=15
        )
        values[field] = "\udfff" + values[field]
        expected = f"^{field} holds a lone surrogate U\\+DFFF at index 0"
        with pytest.raises(ValidationError, match=expected):
            PreferencePair(**values)

    @pytest.mark.parametrize("field", ["question_id", "prompt", "target"])
    def test_refusal_example_field(self, field):
        values = dict(question_id="q", threshold=0.3, prompt=refusal_prompt(0.3, "Q"), target="a")
        values[field] += "\ud800"
        index = len(values[field]) - 1
        expected = f"^{field} holds a lone surrogate U\\+D800 at index {index}"
        with pytest.raises(ValidationError, match=expected):
            RefusalExample(**values)

    def test_paired_surrogates_and_other_text_are_kept(self):
        text = "é \u2028 \x7f 🎉"
        assert SampleRecord(answer=text, correct=True, tokens=3).answer == text
        pair = PreferencePair(
            question_id=text, chosen=text, chosen_tokens=8, rejected=text, rejected_tokens=15
        )
        assert (pair.question_id, pair.chosen, pair.rejected) == (text, text, text)


class TestLlmOutcome:
    def test_round_trip(self):
        o = LlmOutcome(correct=False, tokens=123)
        q = make_question(llm_correct=o.correct, llm_tokens=o.tokens)
        assert parse_question(q.to_dict()).llm == o

    def test_tokens_positive(self):
        with pytest.raises(ValidationError):
            LlmOutcome(correct=True, tokens=0)


def record_fields():
    """Keyword arguments for one record of every record class, made anew
    on each call so that two records are equal without being the same.
    A record's values are pairwise unequal, so a record that stores them
    in another order fails the gates below."""

    def point(performance):
        return CurvePoint(cost=0.5, performance=performance, tau=0.3, n_routed=2)

    return {
        PricingSchedule: dict(slm_in=0.1, slm_out=0.2, llm_in=0.3, llm_out=0.4),
        SampleRecord: dict(answer="a", correct=True, tokens=5, confidence_level=0.3, refusal=False),
        LlmOutcome: dict(correct=False, tokens=7),
        QuestionRecord: dict(
            id="q", input_tokens=9, slm_samples=(make_sample(),), pre_score=0.5,
            llm=LlmOutcome(correct=True, tokens=4),
        ),
        DatasetProfile: dict(ids=("a", "b"), input_tokens=(3, 4), avg_llm_tokens=2.5, n_with_llm=2),
        RoutingOutcome: dict(
            question_id="q", mode="cascade", routed=True, quality=0.75, slm_cost=1e-6,
            llm_cost=2e-6, decision_latency_tokens=3, accepted_answer=None,
        ),
        CurvePoint: dict(cost=0.5, performance=0.75, tau=0.3, label=None, n_routed=2),
        MetricsReport: dict(toa=0.7, agl=3.0, arol=4.0, mode="actual", toa100=0.8, togr=0.9),
        PreferencePair: dict(
            question_id="q", chosen="t", rejected="u", chosen_tokens=80, rejected_tokens=150
        ),
        RefusalExample: dict(
            question_id="q", threshold=0.3, prompt=refusal_prompt(0.3, "Q"), target="a"
        ),
        LatencyReport: dict(agl=2.5, arol=5.0, n_accepted=1, n_rejected=2),
        SweepResult: dict(
            points=(point(0.75),), perfect_points=(point(1.0),),
            latency=LatencyReport(agl=2.5, arol=5.0, n_accepted=1, n_rejected=2),
        ),
        ResponseSample: dict(text="t", correct=True, tokens=5),
        TrainingQuestion: dict(
            id="q", question="Q", samples=(ResponseSample(text="t", correct=True, tokens=5),)
        ),
        LossTerms: dict(dpo=0.1, sft=0.2, total=0.3),
        SyntheticParams: dict(
            scheme="sc", n_samples=3, difficulty_min=0.1, difficulty_max=0.9, easy_fraction=0.2,
            llm_correct_prob=0.8, pre_score_noise=0.3, include_llm=False,
        ),
    }


RECORD_CLASSES = list(record_fields())

# Each record of ``record_fields()`` as its repr reads: the class name,
# then every field as ``name=value!r`` in declaration order.
REPRS = {
    PricingSchedule: "PricingSchedule(slm_in=0.1, slm_out=0.2, llm_in=0.3, llm_out=0.4)",
    SampleRecord: (
        "SampleRecord(answer='a', correct=True, tokens=5, confidence_level=0.3, refusal=False)"
    ),
    LlmOutcome: "LlmOutcome(correct=False, tokens=7)",
    QuestionRecord: (
        "QuestionRecord(id='q', input_tokens=9, slm_samples=(SampleRecord(answer='a', "
        "correct=True, tokens=50, confidence_level=None, refusal=False),), pre_score=0.5, "
        "llm=LlmOutcome(correct=True, tokens=4))"
    ),
    DatasetProfile: (
        "DatasetProfile(ids=('a', 'b'), input_tokens=(3, 4), avg_llm_tokens=2.5, n_with_llm=2)"
    ),
    RoutingOutcome: (
        "RoutingOutcome(question_id='q', mode='cascade', routed=True, quality=0.75, "
        "slm_cost=1e-06, llm_cost=2e-06, decision_latency_tokens=3, accepted_answer=None)"
    ),
    CurvePoint: "CurvePoint(cost=0.5, performance=0.75, tau=0.3, label=None, n_routed=2)",
    MetricsReport: (
        "MetricsReport(toa=0.7, agl=3.0, arol=4.0, mode='actual', toa100=0.8, togr=0.9)"
    ),
    PreferencePair: (
        "PreferencePair(question_id='q', chosen='t', rejected='u', chosen_tokens=80, "
        "rejected_tokens=150)"
    ),
    RefusalExample: (
        "RefusalExample(question_id='q', threshold=0.3, "
        "prompt='Please respond with a confidence level of 0.3: Q', target='a')"
    ),
    LatencyReport: "LatencyReport(agl=2.5, arol=5.0, n_accepted=1, n_rejected=2)",
    SweepResult: (
        "SweepResult(points=(CurvePoint(cost=0.5, performance=0.75, tau=0.3, label=None, "
        "n_routed=2),), perfect_points=(CurvePoint(cost=0.5, performance=1.0, tau=0.3, "
        "label=None, n_routed=2),), latency=LatencyReport(agl=2.5, arol=5.0, n_accepted=1, "
        "n_rejected=2))"
    ),
    ResponseSample: "ResponseSample(text='t', correct=True, tokens=5)",
    TrainingQuestion: (
        "TrainingQuestion(id='q', question='Q', samples=(ResponseSample(text='t', "
        "correct=True, tokens=5),))"
    ),
    LossTerms: "LossTerms(dpo=0.1, sft=0.2, total=0.3)",
    SyntheticParams: (
        "SyntheticParams(scheme='sc', n_samples=3, difficulty_min=0.1, difficulty_max=0.9, "
        "easy_fraction=0.2, llm_correct_prob=0.8, pre_score_noise=0.3, include_llm=False)"
    ),
}


class TestRecordGates:
    """What every record class guarantees, however its methods are made:
    it is frozen, it equals a record of its class with equal fields and
    nothing else, not even a record of a subclass, equal records hash equal, its repr names every field,
    and pickling or copying it gives an equal record."""

    def test_every_record_class_is_covered(self):
        defined = {
            value
            for module in (records, trainset, io)
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, records._Record)
            and value.__module__ == module.__name__
            and value is not records._Record
        }
        assert defined == set(RECORD_CLASSES)

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        values = record_fields()[cls]
        record = cls(**values)
        for name, value in values.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert {name: getattr(record, name) for name in values} == values

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
    def test_equal_fields_make_equal_records_with_equal_hashes(self, cls):
        values = record_fields()[cls]
        record, twin = cls(**values), cls(**record_fields()[cls])
        assert record is not twin
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        as_tuple = tuple(values.values())
        assert record != as_tuple and as_tuple != record
        subclass = type(cls.__name__, (cls,), {"__slots__": ()})
        same_fields = subclass(**record_fields()[cls])
        assert repr(same_fields) == repr(record)
        assert record != same_fields and same_fields != record

    def test_store_takes_exactly_one_value_per_field(self):
        # A subclass record stores through its parent's slot descriptors.
        subclass = type("LossTerms", (LossTerms,), {"__slots__": ()})
        record = subclass(dpo=0.1, sft=0.2, total=0.3)
        assert (record.dpo, record.sft, record.total) == (0.1, 0.2, 0.3)
        for wrong in ((0.4, 0.5), (0.4, 0.5, 0.6, 0.7)):
            miscounted = type(
                "LossTerms", (LossTerms,), {"__slots__": (), "__init__": lambda self: self._store(*wrong)}
            )
            with pytest.raises(ValueError):
                miscounted()

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
    def test_repr_names_every_field(self, cls):
        assert repr(cls(**record_fields()[cls])) == REPRS[cls]

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
    def test_pickle_and_copy_round_trip(self, cls):
        record = cls(**record_fields()[cls])
        for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(again) is cls
            assert again == record
            assert repr(again) == repr(record)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


HUGE = 10**400

# One value of each kind a constructor check must convert or reject.
ODD_VALUES = {
    "bool": True,
    "numeric_str": "7",
    "str_subclass": _Str("s"),
    "int_subclass": _Int(7),
    "float_subclass": _Float(0.5),
    "nan": math.nan,
    "zero": 0,
    "minus_one": -1,
    "huge_int": HUGE,
    "lone_surrogate": "x\ud800",
}


def valid_fields():
    """A valid call of each constructor whose outcomes are pinned."""
    return {
        LlmOutcome: dict(correct=True, tokens=7),
        QuestionRecord: dict(
            id="q", input_tokens=9, slm_samples=(make_sample(),), pre_score=0.5,
            llm=LlmOutcome(correct=True, tokens=4),
        ),
        TrainingQuestion: dict(
            id="q", question="Q", samples=(ResponseSample(text="t", correct=True, tokens=5),)
        ),
    }


def constructor_cases():
    """Each field of each pinned constructor set to each odd value, the
    other fields valid; then every field set to the same odd value, which
    pins the order of the checks."""
    cases = {}
    for cls, fields in valid_fields().items():
        for label, value in ODD_VALUES.items():
            for field in fields:
                cases[f"{cls.__name__}-{field}-{label}"] = (cls, {**fields, field: value})
            cases[f"{cls.__name__}-all-{label}"] = (cls, dict.fromkeys(fields, value))
    return cases


CONSTRUCTOR_CASES = constructor_cases()


def constructor_outcome(cls, fields):
    """The record's repr and the type of each field's value, or the
    exception's type name and text; ``10**400`` stands for its digits."""
    try:
        record = cls(**fields)
    except Exception as exc:  # compared, not swallowed
        outcome = f"{type(exc).__name__}: {exc}"
    else:
        types = ", ".join(type(getattr(record, name)).__name__ for name in cls._fields)
        outcome = f"{record!r} [{types}]"
    return outcome.replace(str(HUGE), "10**400")

# What each case of ``CONSTRUCTOR_CASES`` gives, as ``constructor_outcome`` reads it.
CONSTRUCTOR_PINS = {
    'LlmOutcome-correct-bool': 'LlmOutcome(correct=True, tokens=7) [bool, int]',
    'LlmOutcome-tokens-bool': 'ValidationError: llm.tokens must be an integer, got True',
    'LlmOutcome-all-bool': 'ValidationError: llm.tokens must be an integer, got True',
    'LlmOutcome-correct-numeric_str': "ValidationError: llm.correct must be a boolean, got '7'",
    'LlmOutcome-tokens-numeric_str': "ValidationError: llm.tokens must be an integer, got '7'",
    'LlmOutcome-all-numeric_str': "ValidationError: llm.correct must be a boolean, got '7'",
    'LlmOutcome-correct-str_subclass': "ValidationError: llm.correct must be a boolean, got 's'",
    'LlmOutcome-tokens-str_subclass': "ValidationError: llm.tokens must be an integer, got 's'",
    'LlmOutcome-all-str_subclass': "ValidationError: llm.correct must be a boolean, got 's'",
    'LlmOutcome-correct-int_subclass': 'ValidationError: llm.correct must be a boolean, got 7',
    'LlmOutcome-tokens-int_subclass': 'LlmOutcome(correct=True, tokens=7) [bool, _Int]',
    'LlmOutcome-all-int_subclass': 'ValidationError: llm.correct must be a boolean, got 7',
    'LlmOutcome-correct-float_subclass': 'ValidationError: llm.correct must be a boolean, got 0.5',
    'LlmOutcome-tokens-float_subclass': 'ValidationError: llm.tokens must be an integer, got 0.5',
    'LlmOutcome-all-float_subclass': 'ValidationError: llm.correct must be a boolean, got 0.5',
    'LlmOutcome-correct-nan': 'ValidationError: llm.correct must be a boolean, got nan',
    'LlmOutcome-tokens-nan': 'ValidationError: llm.tokens must be an integer, got nan',
    'LlmOutcome-all-nan': 'ValidationError: llm.correct must be a boolean, got nan',
    'LlmOutcome-correct-zero': 'ValidationError: llm.correct must be a boolean, got 0',
    'LlmOutcome-tokens-zero': 'ValidationError: llm.tokens must be >= 1, got 0',
    'LlmOutcome-all-zero': 'ValidationError: llm.correct must be a boolean, got 0',
    'LlmOutcome-correct-minus_one': 'ValidationError: llm.correct must be a boolean, got -1',
    'LlmOutcome-tokens-minus_one': 'ValidationError: llm.tokens must be >= 1, got -1',
    'LlmOutcome-all-minus_one': 'ValidationError: llm.correct must be a boolean, got -1',
    'LlmOutcome-correct-huge_int': 'ValidationError: llm.correct must be a boolean, got 10**400',
    'LlmOutcome-tokens-huge_int': (
        'ValidationError: llm.tokens is too large for a float, got an integer of 1329 bits'
    ),
    'LlmOutcome-all-huge_int': 'ValidationError: llm.correct must be a boolean, got 10**400',
    'LlmOutcome-correct-lone_surrogate': (
        "ValidationError: llm.correct must be a boolean, got 'x\\ud800'"
    ),
    'LlmOutcome-tokens-lone_surrogate': (
        "ValidationError: llm.tokens must be an integer, got 'x\\ud800'"
    ),
    'LlmOutcome-all-lone_surrogate': (
        "ValidationError: llm.correct must be a boolean, got 'x\\ud800'"
    ),
    'QuestionRecord-id-bool': 'ValidationError: id must be a non-empty string, got True',
    'QuestionRecord-input_tokens-bool': (
        'ValidationError: input_tokens must be an integer, got True'
    ),
    'QuestionRecord-slm_samples-bool': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-bool': 'ValidationError: pre_score must be a number, got True',
    'QuestionRecord-llm-bool': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-bool': 'ValidationError: id must be a non-empty string, got True',
    'QuestionRecord-id-numeric_str': (
        "QuestionRecord(id='7', input_tokens=9, slm_samples=(SampleRecord(answer='a', "
        'correct=True, tokens=50, confidence_level=None, refusal=False),), pre_score=0.5, '
        'llm=LlmOutcome(correct=True, tokens=4)) [str, int, tuple, float, LlmOutcome]'
    ),
    'QuestionRecord-input_tokens-numeric_str': (
        "ValidationError: input_tokens must be an integer, got '7'"
    ),
    'QuestionRecord-slm_samples-numeric_str': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-numeric_str': "ValidationError: pre_score must be a number, got '7'",
    'QuestionRecord-llm-numeric_str': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-numeric_str': "ValidationError: input_tokens must be an integer, got '7'",
    'QuestionRecord-id-str_subclass': (
        "QuestionRecord(id='s', input_tokens=9, slm_samples=(SampleRecord(answer='a', "
        'correct=True, tokens=50, confidence_level=None, refusal=False),), pre_score=0.5, '
        'llm=LlmOutcome(correct=True, tokens=4)) [_Str, int, tuple, float, LlmOutcome]'
    ),
    'QuestionRecord-input_tokens-str_subclass': (
        "ValidationError: input_tokens must be an integer, got 's'"
    ),
    'QuestionRecord-slm_samples-str_subclass': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-str_subclass': "ValidationError: pre_score must be a number, got 's'",
    'QuestionRecord-llm-str_subclass': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-str_subclass': "ValidationError: input_tokens must be an integer, got 's'",
    'QuestionRecord-id-int_subclass': 'ValidationError: id must be a non-empty string, got 7',
    'QuestionRecord-input_tokens-int_subclass': (
        "QuestionRecord(id='q', input_tokens=7, slm_samples=(SampleRecord(answer='a', "
        'correct=True, tokens=50, confidence_level=None, refusal=False),), pre_score=0.5, '
        'llm=LlmOutcome(correct=True, tokens=4)) [str, _Int, tuple, float, LlmOutcome]'
    ),
    'QuestionRecord-slm_samples-int_subclass': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-int_subclass': (
        "ValidationError: question 'q': pre_score must lie in [0, 1], got 7.0"
    ),
    'QuestionRecord-llm-int_subclass': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-int_subclass': 'ValidationError: id must be a non-empty string, got 7',
    'QuestionRecord-id-float_subclass': 'ValidationError: id must be a non-empty string, got 0.5',
    'QuestionRecord-input_tokens-float_subclass': (
        'ValidationError: input_tokens must be an integer, got 0.5'
    ),
    'QuestionRecord-slm_samples-float_subclass': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-float_subclass': (
        "QuestionRecord(id='q', input_tokens=9, slm_samples=(SampleRecord(answer='a', "
        'correct=True, tokens=50, confidence_level=None, refusal=False),), pre_score=0.5, '
        'llm=LlmOutcome(correct=True, tokens=4)) [str, int, tuple, float, LlmOutcome]'
    ),
    'QuestionRecord-llm-float_subclass': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-float_subclass': 'ValidationError: id must be a non-empty string, got 0.5',
    'QuestionRecord-id-nan': 'ValidationError: id must be a non-empty string, got nan',
    'QuestionRecord-input_tokens-nan': 'ValidationError: input_tokens must be an integer, got nan',
    'QuestionRecord-slm_samples-nan': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-nan': 'ValidationError: pre_score must be a finite number, got nan',
    'QuestionRecord-llm-nan': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-nan': 'ValidationError: id must be a non-empty string, got nan',
    'QuestionRecord-id-zero': 'ValidationError: id must be a non-empty string, got 0',
    'QuestionRecord-input_tokens-zero': (
        "ValidationError: question 'q': input_tokens must be >= 1, got 0"
    ),
    'QuestionRecord-slm_samples-zero': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-zero': (
        "QuestionRecord(id='q', input_tokens=9, slm_samples=(SampleRecord(answer='a', "
        'correct=True, tokens=50, confidence_level=None, refusal=False),), pre_score=0.0, '
        'llm=LlmOutcome(correct=True, tokens=4)) [str, int, tuple, float, LlmOutcome]'
    ),
    'QuestionRecord-llm-zero': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-zero': 'ValidationError: id must be a non-empty string, got 0',
    'QuestionRecord-id-minus_one': 'ValidationError: id must be a non-empty string, got -1',
    'QuestionRecord-input_tokens-minus_one': (
        "ValidationError: question 'q': input_tokens must be >= 1, got -1"
    ),
    'QuestionRecord-slm_samples-minus_one': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-minus_one': (
        "ValidationError: question 'q': pre_score must lie in [0, 1], got -1.0"
    ),
    'QuestionRecord-llm-minus_one': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-minus_one': 'ValidationError: id must be a non-empty string, got -1',
    'QuestionRecord-id-huge_int': 'ValidationError: id must be a non-empty string, got 10**400',
    'QuestionRecord-input_tokens-huge_int': (
        'ValidationError: input_tokens is too large for a float, got an integer of 1329 '
        'bits'
    ),
    'QuestionRecord-slm_samples-huge_int': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-huge_int': (
        'ValidationError: pre_score is too large for a float, got an integer of 1329 bits'
    ),
    'QuestionRecord-llm-huge_int': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-huge_int': 'ValidationError: id must be a non-empty string, got 10**400',
    'QuestionRecord-id-lone_surrogate': (
        'ValidationError: id holds a lone surrogate U+D800 at index 1, which UTF-8 cannot '
        'encode'
    ),
    'QuestionRecord-input_tokens-lone_surrogate': (
        "ValidationError: input_tokens must be an integer, got 'x\\ud800'"
    ),
    'QuestionRecord-slm_samples-lone_surrogate': (
        "ValidationError: question 'q': slm_samples must hold SampleRecord values"
    ),
    'QuestionRecord-pre_score-lone_surrogate': (
        "ValidationError: pre_score must be a number, got 'x\\ud800'"
    ),
    'QuestionRecord-llm-lone_surrogate': "ValidationError: question 'q': llm must be an LlmOutcome",
    'QuestionRecord-all-lone_surrogate': (
        'ValidationError: id holds a lone surrogate U+D800 at index 1, which UTF-8 cannot '
        'encode'
    ),
    'TrainingQuestion-id-bool': 'ValidationError: id must be a non-empty string, got True',
    'TrainingQuestion-question-bool': (
        'ValidationError: question must be a non-empty string, got True'
    ),
    'TrainingQuestion-samples-bool': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-bool': 'ValidationError: id must be a non-empty string, got True',
    'TrainingQuestion-id-numeric_str': (
        "TrainingQuestion(id='7', question='Q', samples=(ResponseSample(text='t', "
        'correct=True, tokens=5),)) [str, str, tuple]'
    ),
    'TrainingQuestion-question-numeric_str': (
        "TrainingQuestion(id='q', question='7', samples=(ResponseSample(text='t', "
        'correct=True, tokens=5),)) [str, str, tuple]'
    ),
    'TrainingQuestion-samples-numeric_str': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-numeric_str': (
        "ValidationError: question '7': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-id-str_subclass': (
        "TrainingQuestion(id='s', question='Q', samples=(ResponseSample(text='t', "
        'correct=True, tokens=5),)) [_Str, str, tuple]'
    ),
    'TrainingQuestion-question-str_subclass': (
        "TrainingQuestion(id='q', question='s', samples=(ResponseSample(text='t', "
        'correct=True, tokens=5),)) [str, _Str, tuple]'
    ),
    'TrainingQuestion-samples-str_subclass': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-str_subclass': (
        "ValidationError: question 's': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-id-int_subclass': 'ValidationError: id must be a non-empty string, got 7',
    'TrainingQuestion-question-int_subclass': (
        'ValidationError: question must be a non-empty string, got 7'
    ),
    'TrainingQuestion-samples-int_subclass': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-int_subclass': 'ValidationError: id must be a non-empty string, got 7',
    'TrainingQuestion-id-float_subclass': 'ValidationError: id must be a non-empty string, got 0.5',
    'TrainingQuestion-question-float_subclass': (
        'ValidationError: question must be a non-empty string, got 0.5'
    ),
    'TrainingQuestion-samples-float_subclass': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-float_subclass': (
        'ValidationError: id must be a non-empty string, got 0.5'
    ),
    'TrainingQuestion-id-nan': 'ValidationError: id must be a non-empty string, got nan',
    'TrainingQuestion-question-nan': (
        'ValidationError: question must be a non-empty string, got nan'
    ),
    'TrainingQuestion-samples-nan': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-nan': 'ValidationError: id must be a non-empty string, got nan',
    'TrainingQuestion-id-zero': 'ValidationError: id must be a non-empty string, got 0',
    'TrainingQuestion-question-zero': 'ValidationError: question must be a non-empty string, got 0',
    'TrainingQuestion-samples-zero': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-zero': 'ValidationError: id must be a non-empty string, got 0',
    'TrainingQuestion-id-minus_one': 'ValidationError: id must be a non-empty string, got -1',
    'TrainingQuestion-question-minus_one': (
        'ValidationError: question must be a non-empty string, got -1'
    ),
    'TrainingQuestion-samples-minus_one': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-minus_one': 'ValidationError: id must be a non-empty string, got -1',
    'TrainingQuestion-id-huge_int': 'ValidationError: id must be a non-empty string, got 10**400',
    'TrainingQuestion-question-huge_int': (
        'ValidationError: question must be a non-empty string, got 10**400'
    ),
    'TrainingQuestion-samples-huge_int': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-huge_int': 'ValidationError: id must be a non-empty string, got 10**400',
    'TrainingQuestion-id-lone_surrogate': (
        'ValidationError: id holds a lone surrogate U+D800 at index 1, which UTF-8 cannot '
        'encode'
    ),
    'TrainingQuestion-question-lone_surrogate': (
        'ValidationError: question holds a lone surrogate U+D800 at index 1, which UTF-8 '
        'cannot encode'
    ),
    'TrainingQuestion-samples-lone_surrogate': (
        "ValidationError: question 'q': samples must hold ResponseSample values"
    ),
    'TrainingQuestion-all-lone_surrogate': (
        'ValidationError: id holds a lone surrogate U+D800 at index 1, which UTF-8 cannot '
        'encode'
    ),
}


class TestConstructorPins:
    """The public constructors of the records the loaders build once per
    line give these outcomes for odd values in every field: the value a
    check converts, the type it keeps, and the text of the first check
    that fails. The loaders' own path is pinned by ``parse_golden``."""

    def test_every_case_is_pinned(self):
        assert set(CONSTRUCTOR_PINS) == set(CONSTRUCTOR_CASES)

    @pytest.mark.parametrize("case", CONSTRUCTOR_CASES)
    def test_constructor_gives_its_pinned_outcome(self, case):
        assert constructor_outcome(*CONSTRUCTOR_CASES[case]) == CONSTRUCTOR_PINS[case]
