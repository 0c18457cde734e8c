"""Trade-off areas, golden reference curve, relative gain, and latency."""

import random

import pytest

from routerlab.cascade import sweep_cascade
from routerlab.metrics import (
    LatencyReport,
    golden_curve,
    latency_report,
    toa,
    toa_from_points,
    togr,
)
from routerlab.prerouting import sweep_pre
from routerlab.records import (
    CurvePoint,
    DatasetProfile,
    PricingSchedule,
    RoutingOutcome,
    ValidationError,
)

from conftest import make_question, uniform_cost_question


def grid_point(cost, perf, tau=0.5, n_routed=0):
    return CurvePoint(cost=cost, performance=perf, tau=tau, n_routed=n_routed)


class TestToa:
    def test_diagonal_is_half(self):
        assert toa([], (0.0, 0.0), (1.0, 1.0)) == 0.5

    def test_perfect_step_is_one(self):
        points = [grid_point(0.0, 1.0)]
        assert toa(points, (0.0, 0.0), (1.0, 1.0)) == 1.0

    def test_single_knee_oracle(self):
        # polyline (0,0) -> (0.5,1) -> (1,1): triangle 0.25 plus box 0.5
        points = [grid_point(0.5, 1.0)]
        assert toa(points, (0.0, 0.0), (1.0, 1.0)) == 0.75

    def test_normalizes_against_endpoints(self):
        # same knee expressed in raw axes: costs [2e-5, 1e-4], perf [0.4, 0.8]
        slm, llm = (2e-5, 0.4), (1e-4, 0.8)
        knee_cost = 2e-5 + 0.5 * (1e-4 - 2e-5)
        points = [grid_point(knee_cost, 0.8)]
        assert toa(points, slm, llm) == pytest.approx(0.75, abs=1e-12)

    def test_points_beyond_llm_cost_are_clipped(self):
        # an overspending cascade point adds no area past x = 1
        points = [grid_point(1.2, 1.0, tau=1.0)]
        assert toa(points, (0.0, 0.0), (1.0, 1.0)) == 0.5

    def test_points_below_slm_cost_are_clipped(self):
        points = [grid_point(0.0, 0.0, tau=0.0), grid_point(0.5, 1.0)]
        slm, llm = (0.2, 0.0), (1.0, 1.0)
        # the 0-cost point maps to x < 0 and must not contribute
        value = toa(points, slm, llm)
        assert 0.0 <= value <= 1.0

    def test_input_order_is_irrelevant(self):
        points = [grid_point(0.3, 0.6), grid_point(0.7, 0.9), grid_point(0.5, 0.8)]
        shuffled = list(points)
        random.Random(1).shuffle(shuffled)
        assert toa(points, (0.0, 0.0), (1.0, 1.0)) == toa(
            shuffled, (0.0, 0.0), (1.0, 1.0)
        )

    def test_degenerate_cost_axis_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            toa([], (1.0, 0.0), (1.0, 1.0))

    def test_degenerate_performance_axis_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            toa([], (0.0, 0.9), (1.0, 0.9))


class TestToaFromPoints:
    def curve(self):
        return [
            CurvePoint(cost=0.1, performance=0.5, label="slm_only", n_routed=0),
            grid_point(0.4, 0.8, tau=0.5, n_routed=2),
            CurvePoint(cost=1.0, performance=1.0, label="llm_only", n_routed=5),
        ]

    def test_uses_labeled_endpoints(self):
        points = self.curve()
        expected = toa(points, (0.1, 0.5), (1.0, 1.0))
        assert toa_from_points(points) == expected

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            toa_from_points(self.curve()[:-1])

    def test_duplicate_endpoint_rejected(self):
        points = self.curve() + [
            CurvePoint(cost=1.0, performance=1.0, label="llm_only", n_routed=5)
        ]
        with pytest.raises(ValidationError):
            toa_from_points(points)


class TestGoldenCurve:
    def two_question_fixture(self, pricing):
        rng = random.Random(0)
        hard = uniform_cost_question("hard", 5, rng)
        easy = uniform_cost_question("easy", 8, rng)
        qs = [easy, hard]
        return qs, DatasetProfile.from_questions(qs)

    def test_point_count_and_labels(self, pricing):
        qs, profile = self.two_question_fixture(pricing)
        curve = golden_curve(qs, profile, pricing)
        assert len(curve) == 3
        assert curve[0].label == "slm_only"
        assert curve[-1].label == "llm_only"
        assert [p.n_routed for p in curve] == [0, 1, 2]

    def test_routes_hardest_first(self, pricing):
        qs, profile = self.two_question_fixture(pricing)
        curve = golden_curve(qs, profile, pricing)
        # perf after routing the hard question: (0.8 + 1) / 2
        assert curve[0].performance == pytest.approx((0.5 + 0.8) / 2, abs=1e-12)
        assert curve[1].performance == pytest.approx(0.9, abs=1e-12)
        assert curve[2].performance == 1.0

    def test_performance_nondecreasing_and_concave(self, pricing):
        rng = random.Random(7)
        qs = [uniform_cost_question(f"q{i:02d}", rng.randrange(11), rng) for i in range(30)]
        profile = DatasetProfile.from_questions(qs)
        curve = golden_curve(qs, profile, pricing)
        perfs = [p.performance for p in curve]
        assert perfs == sorted(perfs)
        gains = [b - a for a, b in zip(perfs, perfs[1:])]
        for first, second in zip(gains, gains[1:]):
            assert second <= first + 1e-12

    def test_input_order_is_irrelevant(self, pricing):
        qs, profile = self.two_question_fixture(pricing)
        assert golden_curve(qs, profile, pricing) == golden_curve(
            list(reversed(qs)), profile, pricing
        )

    def test_ties_break_by_id(self, pricing):
        rng = random.Random(3)
        a = uniform_cost_question("a", 5, rng)
        b = uniform_cost_question("b", 5, rng)
        profile = DatasetProfile.from_questions([a, b])
        assert golden_curve([b, a], profile, pricing) == golden_curve(
            [a, b], profile, pricing
        )

    @pytest.mark.parametrize(
        "build",
        [golden_curve, sweep_pre, lambda *args: sweep_cascade(*args, scheme="sc")],
        ids=["golden", "pre", "cascade"],
    )
    def test_profile_coverage_enforced(self, pricing, build):
        qs, profile = self.two_question_fixture(pricing)
        with pytest.raises(ValidationError) as caught:
            build(qs[:1], profile, pricing)
        assert str(caught.value) == (
            "questions do not match the profiled dataset (1 questions vs 2 profiled)"
        )

    def test_endpoint_costs(self, pricing, synth_rcv):
        for qs, profile in (self.two_question_fixture(pricing), synth_rcv):
            curve = golden_curve(qs, profile, pricing)
            assert curve[-1].cost == 1.0
            assert curve[0].cost < 1.0


class TestTogr:
    def golden(self, pricing):
        rng = random.Random(11)
        qs = [uniform_cost_question(f"q{i:02d}", rng.randrange(11), rng) for i in range(20)]
        profile = DatasetProfile.from_questions(qs)
        return golden_curve(qs, profile, pricing)

    def test_golden_scores_one(self, pricing):
        curve = self.golden(pricing)
        assert togr(curve, curve) == 1.0

    def test_diagonal_scores_zero(self, pricing):
        curve = self.golden(pricing)
        diagonal = [curve[0], curve[-1]]
        assert togr(diagonal, curve) == 0.0

    def test_degenerate_reference_rejected(self, pricing):
        curve = self.golden(pricing)
        diagonal = [curve[0], curve[-1]]
        with pytest.raises(ValidationError):
            togr(curve, diagonal)


def cascade_outcome(qid, routed, latency):
    return RoutingOutcome(
        question_id=qid,
        mode="cascade",
        routed=routed,
        slm_cost=1e-6,
        llm_cost=1e-6 if routed else 0.0,
        quality=1.0,
        decision_latency_tokens=latency,
        accepted_answer=None if routed else "a",
    )


class TestLatency:
    def test_group_means(self):
        outcomes = [
            cascade_outcome("a", False, 10),
            cascade_outcome("b", False, 30),
            cascade_outcome("c", True, 100),
        ]
        report = latency_report(outcomes)
        assert report == LatencyReport(agl=20.0, arol=100.0, n_accepted=2, n_rejected=1)

    def test_empty_groups_flagged_by_counts(self):
        accepted_only = [cascade_outcome("a", False, 10)]
        report = latency_report(accepted_only)
        assert report.arol == 0.0
        assert report.n_rejected == 0

    def test_pre_outcomes_rejected(self):
        pre = RoutingOutcome(
            question_id="a",
            mode="pre",
            routed=False,
            slm_cost=1e-6,
            llm_cost=0.0,
            quality=1.0,
            decision_latency_tokens=0,
            accepted_answer="a",
        )
        with pytest.raises(ValidationError):
            latency_report([pre])

    def test_empty_outcomes_rejected(self):
        with pytest.raises(ValidationError):
            latency_report([])
