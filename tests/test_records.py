"""Record validation, canonicalization, and dataclass invariants."""

import json
import math

import pytest

from routerlab import records
from routerlab.io import load_pricing, parse_question
from routerlab.records import (
    CONFIDENCE_LEVELS,
    DEFAULT_TAUS,
    REJECTION_TEXT,
    CurvePoint,
    DatasetProfile,
    LlmOutcome,
    MetricsReport,
    PreferencePair,
    PricingSchedule,
    RefusalExample,
    RoutingOutcome,
    SampleRecord,
    ValidationError,
    canonical_answer,
    confidence_ladder,
    normalize_taus,
    refusal_prompt,
    refusal_prompt_prefix,
    snap_confidence,
)

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


class TestRefusalPrompt:
    def test_prefix_template_bit_exact(self):
        for level in CONFIDENCE_LEVELS:
            assert (
                refusal_prompt_prefix(level)
                == f"Please respond with a confidence level of {level:.1f}:"
            )

    def test_prefix_table_holds_the_template_of_each_level(self):
        assert records._PREFIXES == {
            level: f"Please respond with a confidence level of {level:.1f}:"
            for level in CONFIDENCE_LEVELS
        }

    @pytest.mark.parametrize("threshold, shown", [(0.15, "0.1"), (0.05, "0.1"), (1, "1.0")])
    def test_off_grid_and_int_thresholds_keep_their_text(self, threshold, shown):
        expected = f"Please respond with a confidence level of {shown}:"
        assert refusal_prompt_prefix(threshold) == expected

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

    def test_round_trip(self):
        q = make_question(samples=make_ladder(6))
        assert parse_question(q.to_dict()) == q

    def test_round_trip_without_llm(self):
        q = make_question(with_llm=False, pre_score=None)
        assert parse_question(q.to_dict()) == q


class TestConfidenceLadder:
    def test_orders_by_level(self):
        q = make_question(samples=list(reversed(make_ladder(4))))
        ladder = confidence_ladder(q)
        assert [s.confidence_level for s in ladder] == [i / 10 for i in range(1, 11)]

    def test_missing_level_rejected(self):
        samples = make_ladder(4)[:9]
        q = make_question(samples=samples)
        with pytest.raises(ValidationError):
            confidence_ladder(q)

    def test_duplicate_level_rejected(self):
        samples = make_ladder(4)[:9] + [make_sample("a", True, 5, 0.5)]
        q = make_question(samples=samples)
        with pytest.raises(ValidationError):
            confidence_ladder(q)

    def test_untagged_rejected(self):
        q = make_question()
        with pytest.raises(ValidationError):
            confidence_ladder(q)


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

    def test_no_llm_anywhere(self):
        profile = DatasetProfile.from_questions([make_question("a", with_llm=False)])
        assert profile.avg_llm_tokens is None
        assert profile.n_with_llm == 0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            DatasetProfile.from_questions([])


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
