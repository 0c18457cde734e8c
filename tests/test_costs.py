"""Token-cost accounting and curve-axis normalization."""

import functools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routerlab.costs import (
    average_quality,
    llm_question_cost,
    mean_sample_correct,
    mean_sample_tokens,
    normalized_cascade_cost,
    normalized_pre_cost,
    slm_question_cost,
    total_llm_cost,
)
from routerlab.prerouting import sweep_pre
from routerlab.records import (
    DatasetProfile,
    PricingSchedule,
    RoutingOutcome,
    ValidationError,
)

from conftest import make_question, make_sample


def outcome(qid, mode, routed, slm, llm, quality=1.0, latency=None):
    if latency is None:
        latency = 0 if mode == "pre" else 1
    return RoutingOutcome(
        question_id=qid,
        mode=mode,
        routed=routed,
        slm_cost=slm,
        llm_cost=llm,
        quality=quality,
        decision_latency_tokens=latency,
        accepted_answer=None if routed else "a",
    )


class TestPerQuestionCosts:
    def test_slm_cost_oracle(self, pricing):
        # (0.02 * 100 + 0.08 * 200) / 1e6
        q = make_question(input_tokens=100)
        assert slm_question_cost(q, 200.0, pricing) == pytest.approx(1.8e-5, rel=1e-12)

    @pytest.mark.parametrize("tokens", [math.nan, math.inf, -1.0])
    def test_slm_cost_rejects_bad_output_tokens(self, pricing, tokens):
        with pytest.raises(ValidationError, match="output_tokens must be >= 0"):
            slm_question_cost(make_question(), tokens, pricing)

    def test_llm_cost_uses_dataset_average_output(self, pricing):
        a = make_question("a", input_tokens=100, llm_tokens=100)
        b = make_question("b", input_tokens=100, llm_tokens=500)
        profile = DatasetProfile.from_questions([a, b])
        # both questions are priced with the mean of 300 output tokens
        expected = (0.275 * 100 + 1.10 * 300.0) / 1e6
        assert llm_question_cost(a, profile, pricing) == pytest.approx(expected, rel=1e-12)
        assert llm_question_cost(a, profile, pricing) == llm_question_cost(
            b, profile, pricing
        )

    def test_llm_cost_requires_llm_records(self, pricing):
        q = make_question(with_llm=False)
        profile = DatasetProfile.from_questions([q])
        with pytest.raises(ValidationError):
            llm_question_cost(q, profile, pricing)

    def test_equal_token_cost_ratio(self, pricing):
        q = make_question(input_tokens=100, llm_tokens=100)
        profile = DatasetProfile.from_questions([q])
        slm = slm_question_cost(q, 100.0, pricing)
        llm = llm_question_cost(q, profile, pricing)
        assert llm / slm == pytest.approx(13.75, rel=1e-12)

    def test_total_is_sum_in_id_order(self, pricing):
        qs = [make_question(f"q{i}", input_tokens=50 + i, llm_tokens=100 + i) for i in range(5)]
        profile = DatasetProfile.from_questions(qs)
        total = total_llm_cost(profile, pricing)
        # A left fold, as total_llm_cost promises: since Python 3.12, sum()
        # of floats is compensated and may differ in the last bit.
        terms = [llm_question_cost(q, profile, pricing) for q in qs]
        assert total == functools.reduce(operator.add, terms, 0.0)


class TestSampleAverages:
    def test_mean_tokens(self):
        q = make_question(samples=[make_sample(tokens=10), make_sample(tokens=30)])
        assert mean_sample_tokens(q) == 20.0

    def test_mean_correct(self):
        q = make_question(
            samples=[make_sample("a", True)] * 7 + [make_sample("b", False)] * 3
        )
        assert mean_sample_correct(q) == 0.7


class TestNormalizedCost:
    def test_all_routed_is_exactly_one(self, pricing):
        qs = [
            make_question(f"q{i}", input_tokens=30 + 17 * i, llm_tokens=90 + 13 * i)
            for i in range(9)
        ]
        profile = DatasetProfile.from_questions(qs)
        outcomes = [
            outcome(q.id, "pre", True, 0.0, llm_question_cost(q, profile, pricing))
            for q in qs
        ]
        # the normalizer sums the same terms in the same order, so the
        # all-routed policy lands on 1.0 bit-exactly, not approximately
        assert normalized_pre_cost(outcomes, profile, pricing) == 1.0

    def test_all_kept_is_below_one_when_slm_cheaper(self, pricing):
        qs = [make_question(f"q{i}") for i in range(4)]
        profile = DatasetProfile.from_questions(qs)
        outcomes = [
            outcome(q.id, "pre", False, slm_question_cost(q, 50.0, pricing), 0.0)
            for q in qs
        ]
        assert 0.0 < normalized_pre_cost(outcomes, profile, pricing) < 1.0

    def test_cascade_normalizer_accepts_cascade_outcomes(self, pricing):
        qs = [make_question("a"), make_question("b")]
        profile = DatasetProfile.from_questions(qs)
        outcomes = [outcome(q.id, "cascade", False, 2e-5, 0.0, latency=5) for q in qs]
        value = normalized_cascade_cost(outcomes, profile, pricing)
        assert value == pytest.approx(4e-5 / total_llm_cost(profile, pricing), rel=1e-12)

    @pytest.mark.parametrize("normalize", [normalized_pre_cost, normalized_cascade_cost])
    def test_empty_outcomes_rejected(self, pricing, normalize):
        profile = DatasetProfile.from_questions([make_question("a")])
        with pytest.raises(ValidationError) as caught:
            normalize([], profile, pricing)
        assert str(caught.value) == "cannot normalise an empty outcome collection"

    def test_mode_mismatch_rejected(self, pricing):
        qs = [make_question("a")]
        profile = DatasetProfile.from_questions(qs)
        pre = [outcome("a", "pre", False, 1e-6, 0.0)]
        with pytest.raises(ValidationError):
            normalized_cascade_cost(pre, profile, pricing)

    def test_coverage_must_match_profile(self, pricing):
        qs = [make_question("a"), make_question("b")]
        profile = DatasetProfile.from_questions(qs)
        with pytest.raises(ValidationError):
            normalized_pre_cost([outcome("a", "pre", False, 1e-6, 0.0)], profile, pricing)
        extra = [
            outcome("a", "pre", False, 1e-6, 0.0),
            outcome("b", "pre", False, 1e-6, 0.0),
            outcome("c", "pre", False, 1e-6, 0.0),
        ]
        with pytest.raises(ValidationError):
            normalized_pre_cost(extra, profile, pricing)
        dup = [
            outcome("a", "pre", False, 1e-6, 0.0),
            outcome("a", "pre", False, 1e-6, 0.0),
        ]
        with pytest.raises(ValidationError):
            normalized_pre_cost(dup, profile, pricing)

    @given(scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_price_scale_invariance(self, scale):
        # multiplying every price by the same factor cancels in the ratio
        base = PricingSchedule()
        scaled = PricingSchedule(
            slm_in=base.slm_in * scale,
            slm_out=base.slm_out * scale,
            llm_in=base.llm_in * scale,
            llm_out=base.llm_out * scale,
        )
        qs = [make_question("a", llm_tokens=150), make_question("b", llm_tokens=450)]
        profile = DatasetProfile.from_questions(qs)

        def cost_with(p):
            outs = [
                outcome("a", "pre", False, slm_question_cost(qs[0], 80.0, p), 0.0),
                outcome("b", "pre", True, 0.0, llm_question_cost(qs[1], profile, p)),
            ]
            return normalized_pre_cost(outs, profile, p)

        assert cost_with(scaled) == pytest.approx(cost_with(base), rel=1e-9)


def llm_only_point(questions, profile, pricing, assume_perfect):
    """The all-LLM reference the sweep engine ends every curve with."""
    return sweep_pre(questions, profile, pricing, assume_perfect=assume_perfect).points[-1]


class TestQualityAndEndpoints:
    def test_average_quality(self):
        outs = [
            outcome("a", "pre", False, 1e-6, 0.0, quality=1.0),
            outcome("b", "pre", False, 1e-6, 0.0, quality=0.0),
        ]
        assert average_quality(outs) == 0.5

    def test_average_quality_empty_rejected(self):
        with pytest.raises(ValidationError):
            average_quality([])

    def test_llm_only_point_actual(self, pricing):
        qs = [
            make_question("a", llm_correct=True),
            make_question("b", llm_correct=False),
        ]
        profile = DatasetProfile.from_questions(qs)
        point = llm_only_point(qs, profile, pricing, assume_perfect=False)
        assert point.label == "llm_only"
        assert point.cost == 1.0
        assert point.performance == 0.5
        assert point.n_routed == 2

    def test_llm_only_point_perfect(self, pricing):
        qs = [make_question("a", llm_correct=False)]
        profile = DatasetProfile.from_questions(qs)
        point = llm_only_point(qs, profile, pricing, assume_perfect=True)
        assert point.performance == 1.0

    def test_llm_only_point_requires_llm_in_actual_mode(self, pricing):
        qs = [make_question("a"), make_question("b", with_llm=False)]
        profile = DatasetProfile.from_questions(qs)
        with pytest.raises(ValidationError, match="'b' has no llm record"):
            llm_only_point(qs, profile, pricing, assume_perfect=False)
