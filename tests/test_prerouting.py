"""Pre-generation routing: scores, strict thresholding, and sweeps."""

import math

import pytest

from routerlab.costs import llm_question_cost, slm_question_cost
from routerlab.prerouting import (
    derive_refusal_score,
    question_score,
    route_pre,
    sweep_pre,
)
from routerlab.records import (
    DEFAULT_TAUS,
    DatasetProfile,
    ValidationError,
)

from conftest import make_ladder, make_question, make_sample


class TestRefusalScore:
    def test_highest_answering_level(self):
        q = make_question(samples=make_ladder(6))
        assert derive_refusal_score(q) == 0.6

    def test_all_levels_answer(self):
        q = make_question(samples=make_ladder(10))
        assert derive_refusal_score(q) == 1.0

    def test_all_levels_refuse(self):
        q = make_question(samples=make_ladder(0))
        assert derive_refusal_score(q) == 0.0

    def test_untagged_samples_rejected(self):
        q = make_question()
        with pytest.raises(ValidationError):
            derive_refusal_score(q)


class TestQuestionScore:
    def test_pre_source(self):
        q = make_question(pre_score=0.42)
        assert question_score(q, "pre") == 0.42

    def test_pre_source_requires_score(self):
        q = make_question(pre_score=None)
        with pytest.raises(ValidationError):
            question_score(q, "pre")

    def test_refusal_source(self):
        q = make_question(samples=make_ladder(3), pre_score=None)
        assert question_score(q, "refusal") == 0.3

    def test_unknown_source_rejected(self):
        with pytest.raises(ValidationError):
            question_score(make_question(), "oracle")


class TestRoutePre:
    def fixture(self):
        kept_q = make_question("keep", pre_score=0.5, llm_correct=False)
        profile = DatasetProfile.from_questions([kept_q])
        return kept_q, profile

    def test_threshold_is_strict(self, pricing):
        q, profile = self.fixture()
        # score == tau stays on the small model; only score < tau escalates
        assert route_pre(q, 0.5, profile, pricing).routed is False
        assert route_pre(q, 0.5000001, profile, pricing).routed is True

    def test_tau_zero_routes_nothing(self, pricing):
        q = make_question("z", pre_score=0.0)
        profile = DatasetProfile.from_questions([q])
        assert route_pre(q, 0.0, profile, pricing).routed is False

    def test_kept_outcome_fields(self, pricing):
        samples = [make_sample("a", True, 30)] * 7 + [make_sample("b", False, 50)] * 3
        q = make_question("k", samples=samples, pre_score=0.9)
        profile = DatasetProfile.from_questions([q])
        out = route_pre(q, 0.5, profile, pricing)
        assert out.routed is False
        assert out.quality == 0.7
        assert out.accepted_answer == "a"
        assert out.decision_latency_tokens == 0
        assert out.llm_cost == 0.0
        mean_tokens = (30 * 7 + 50 * 3) / 10
        assert out.slm_cost == slm_question_cost(q, mean_tokens, pricing)

    @pytest.mark.parametrize(
        "samples, answer",
        [
            (
                [
                    make_sample("a", True),
                    make_sample("a", True),
                    make_sample("b", False),
                    make_sample("c", False),
                ],
                "a",
            ),
            ([make_sample("b", False), make_sample("a", True)], "a"),
            (
                [make_sample("b", False), make_sample(refusal=True), make_sample(refusal=True)],
                "b",
            ),
            ([make_sample(refusal=True)], None),
            # Confidence weights at alpha 0.5 would give "b": 0.325 + 0.375 < 0.775.
            (
                [
                    make_sample("a", True, confidence=0.1),
                    make_sample("a", True, confidence=0.2),
                    make_sample("b", False, confidence=1.0),
                ],
                "a",
            ),
        ],
        ids=["plurality", "tie_to_smallest_text", "refusals_cast_no_vote", "all_refused", "flat_weights"],
    )
    def test_kept_answer_is_the_flat_vote(self, pricing, samples, answer):
        q = make_question("k", samples=samples, pre_score=0.9)
        profile = DatasetProfile.from_questions([q])
        assert route_pre(q, 0.5, profile, pricing).accepted_answer == answer

    def test_routed_outcome_charges_no_slm(self, pricing):
        q, profile = self.fixture()
        out = route_pre(q, 0.9, profile, pricing)
        assert out.routed is True
        # the question never reaches the small model, so nothing is billed there
        assert out.slm_cost == 0.0
        assert out.llm_cost == llm_question_cost(q, profile, pricing)
        assert out.quality == 0.0  # llm got it wrong
        assert out.accepted_answer is None

    def test_routed_perfect_mode(self, pricing):
        q, profile = self.fixture()
        out = route_pre(q, 0.9, profile, pricing, assume_perfect=True)
        assert out.quality == 1.0

    def test_routed_requires_llm_record_in_actual_mode(self, pricing):
        q = make_question("x", pre_score=0.2, with_llm=False)
        with_llm = make_question("y", pre_score=0.2)
        profile = DatasetProfile.from_questions([q, with_llm])
        with pytest.raises(ValidationError):
            route_pre(q, 0.9, profile, pricing)

    def test_refusal_score_source(self, pricing):
        q = make_question("r", samples=make_ladder(4), pre_score=None)
        profile = DatasetProfile.from_questions([q])
        assert route_pre(q, 0.4, profile, pricing, score_source="refusal").routed is False
        assert route_pre(q, 0.5, profile, pricing, score_source="refusal").routed is True

    @pytest.mark.parametrize(
        "tau, message",
        [
            (math.nan, "thresholds must lie in [0, 1], got nan"),
            (1.5, "thresholds must lie in [0, 1], got 1.5"),
            (-3.0, "thresholds must lie in [0, 1], got -3.0"),
            (True, "thresholds must be numbers in [0, 1], got True"),
            ("0.5", "thresholds must be numbers in [0, 1], got '0.5'"),
        ],
        ids=["nan", "above_one", "negative", "bool", "string"],
    )
    def test_bad_tau_rejected_first(self, pricing, tau, message):
        # The score source is bad too: tau is checked first, as sweep_pre
        # checks its thresholds before anything else.
        q, profile = self.fixture()
        with pytest.raises(ValidationError) as caught:
            route_pre(q, tau, profile, pricing, score_source="nope")
        assert str(caught.value) == message


class TestSweepPre:
    def test_point_layout(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        sweep = sweep_pre(questions, profile, pricing)
        points = sweep.points
        assert len(points) == len(DEFAULT_TAUS) + 2
        assert points[0].label == "slm_only" and points[0].n_routed == 0
        assert points[-1].label == "llm_only" and points[-1].cost == 1.0
        assert [p.tau for p in points[1:-1]] == list(DEFAULT_TAUS)

    def test_tau_zero_matches_slm_only(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        sweep = sweep_pre(questions, profile, pricing)
        slm_only, tau0 = sweep.points[0], sweep.points[1]
        assert tau0.tau == 0.0
        assert tau0.cost == slm_only.cost
        assert tau0.performance == slm_only.performance
        assert tau0.n_routed == 0

    def test_routed_counts_nondecreasing(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        sweep = sweep_pre(questions, profile, pricing)
        counts = [p.n_routed for p in sweep.points[1:-1]]
        assert counts == sorted(counts)

    def test_refusal_source(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        sweep = sweep_pre(questions, profile, pricing, score_source="refusal")
        assert len(sweep.points) == len(DEFAULT_TAUS) + 2

    def test_perfect_performance_hits_one_at_full_routing(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        sweep = sweep_pre(questions, profile, pricing, assume_perfect=True)
        assert sweep.points[-1].performance == 1.0

    def test_missing_score_reported_before_missing_llm_record(self, pricing):
        # Every question is scored before any row is built.
        no_llm = make_question("a", pre_score=0.5, with_llm=False)
        no_score = make_question("b", pre_score=None)
        questions = [no_llm, no_score]
        profile = DatasetProfile.from_questions(questions)
        with pytest.raises(ValidationError, match="'b' has no pre_score"):
            sweep_pre(questions, profile, pricing)
        with pytest.raises(ValidationError, match="'a' has no llm record"):
            sweep_pre(questions[:1], profile, pricing)
