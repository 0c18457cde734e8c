"""Cascade voting: weights, tallies, early stopping, costs, and sweeps."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routerlab import cascade, cli
from routerlab.cascade import (
    DEFAULT_ALPHA,
    DEFAULT_K,
    DEFAULT_LATENCY_TAU,
    WEIGHT_ANCHOR,
    route_cascade,
    select_samples,
    simulate_parallel,
    sweep_cascade,
    vote_weight,
)
from routerlab.costs import llm_question_cost
from routerlab.metrics import latency_report
from routerlab.prerouting import sweep_pre
from routerlab.records import (
    CONFIDENCE_LEVELS,
    DEFAULT_TAUS,
    DatasetProfile,
    PricingSchedule,
    ValidationError,
)

from conftest import make_ladder, make_question, make_sample, reference_vote, sc_votes


class TestVoteWeight:
    def test_defaults(self):
        assert DEFAULT_K == 10
        assert DEFAULT_ALPHA == 0.5
        assert WEIGHT_ANCHOR == 0.55
        assert DEFAULT_LATENCY_TAU == 0.6

    def test_weight_oracles(self):
        # w = 0.55 + alpha * (p - 0.55); both land on exact binary values
        assert vote_weight(1.0, 0.5) == 0.775
        assert vote_weight(0.1, 0.5) == 0.325

    def test_alpha_zero_flattens_weights(self):
        assert {vote_weight(l / 10, 0.0) for l in range(1, 11)} == {0.55}

    def test_alpha_one_recovers_confidence(self):
        for l in range(1, 11):
            assert vote_weight(l / 10, 1.0) == pytest.approx(l / 10, rel=1e-12)

    def test_anchor_is_fixed_point(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            assert vote_weight(0.55, alpha) == 0.55

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            vote_weight(0.5, -0.1)

    def test_nonpositive_weight_rejected(self):
        # alpha large enough to drive low-confidence weights below zero
        with pytest.raises(ValidationError):
            vote_weight(0.1, 2.0)

    def test_int_alpha_weighs_as_its_float(self):
        assert vote_weight(0.1, 1) == vote_weight(0.1, 1.0)

    @pytest.mark.parametrize(
        "level, message",
        [
            ("0.5", "confidence_level must be a number, got '0.5'"),
            (True, "confidence_level must be a number, got True"),
            (math.nan, "confidence_level must be a finite number, got nan"),
            (math.inf, "confidence_level must be a finite number, got inf"),
        ],
        ids=["string", "bool", "nan", "inf"],
    )
    def test_bad_level_names_the_level(self, level, message):
        with pytest.raises(ValidationError) as caught:
            vote_weight(level, 0.5)
        assert str(caught.value) == message

    def test_alpha_checked_before_the_level(self):
        with pytest.raises(ValidationError) as caught:
            vote_weight("0.5", -1.0)
        assert str(caught.value) == "alpha must be a finite number >= 0, got -1.0"

    @pytest.mark.parametrize(
        "level, alpha, message",
        [
            (1e308, 2.0, "confidence_level must lie in [0, 1], got 1e+308"),
            (-5.0, 0.5, "confidence_level must lie in [0, 1], got -5.0"),
            (1.0000000001, 0.5, "confidence_level must lie in [0, 1], got 1.0000000001"),
            (-1e-300, 0.0, "confidence_level must lie in [0, 1], got -1e-300"),
        ],
        ids=["huge", "negative", "just_above_one", "just_below_zero"],
    )
    def test_level_outside_the_unit_interval_names_the_level(self, level, alpha, message):
        with pytest.raises(ValidationError) as caught:
            vote_weight(level, alpha)
        assert str(caught.value) == message

    def test_unit_interval_ends_are_levels(self):
        assert vote_weight(0, 0.5) == 0.275
        assert vote_weight(1, 1.0) == 1.0

    def test_finite_level_keeps_the_nonpositive_weight_message(self):
        with pytest.raises(ValidationError) as caught:
            vote_weight(0, 2.0)
        assert str(caught.value) == (
            "alpha=2.0 gives a nonpositive vote weight for confidence 0.0; weights must stay positive"
        )


def _alpha_calls(synth_rcv, pricing):
    questions, profile = synth_rcv
    return {
        "vote_weight": lambda alpha: vote_weight(0.5, alpha),
        "sweep_cascade": lambda alpha: sweep_cascade(questions, profile, pricing, alpha=alpha),
        "route_cascade": lambda alpha: route_cascade(questions[0], 0.5, profile, pricing, alpha=alpha),
    }


@pytest.mark.parametrize("where", ["vote_weight", "sweep_cascade", "route_cascade"])
@pytest.mark.parametrize(
    "alpha, message",
    [
        ("0.5", "alpha must be a number, got '0.5'"),
        (True, "alpha must be a number, got True"),
        (10**400, "alpha is too large for a float, got an integer of 1329 bits"),
        (math.nan, "alpha must be a finite number >= 0, got nan"),
        (-1, "alpha must be a finite number >= 0, got -1"),
    ],
    ids=["string", "bool", "huge_int", "nan", "negative_int"],
)
def test_bad_alpha_names_alpha(synth_rcv, pricing, where, alpha, message):
    with pytest.raises(ValidationError) as caught:
        _alpha_calls(synth_rcv, pricing)[where](alpha)
    assert str(caught.value) == message


def vote(samples, tau=0.0, alpha=DEFAULT_ALPHA):
    """``(accepted, answer, share)`` of ``simulate_parallel``."""
    accepted, answer, share, _latency, _stopped = simulate_parallel(samples, tau, alpha)
    return accepted, answer, share


class TestTally:
    def test_equal_weight_share_oracle(self):
        # 2 of 4 unit weights
        assert vote(sc_votes(["a", "a", "b", "c"])) == (True, "a", 0.5)

    def test_refusals_dilute_every_share(self):
        # the refusal cannot vote but still sits in the denominator
        assert vote(sc_votes(["a", "a", None, "b"])) == (True, "a", 0.5)

    def test_confidence_weights_applied(self):
        samples = [
            make_sample("a", True, 10, confidence=1.0),
            make_sample("b", False, 10, confidence=0.1),
        ]
        assert vote(samples, alpha=0.5) == (True, "a", 0.775 / (0.775 + 0.325))

    def test_best_breaks_ties_lexicographically(self):
        assert vote(sc_votes(["b", "a"])) == (True, "a", 0.5)

    def test_all_refusals(self):
        assert vote(sc_votes([None, None])) == (True, None, 0.0)


class TestDecide:
    def test_threshold_inclusive(self):
        samples = sc_votes(["a", "a", "b", "c"])
        assert vote(samples, 0.5)[0] is True
        assert vote(samples, 0.5000001)[0] is False

    def test_accepted_answer(self):
        assert vote(sc_votes(["a", "a", "b"]), 0.6) == (True, "a", 2.0 / 3.0)

    def test_all_refusals_accept_only_at_tau_zero(self):
        samples = sc_votes([None, None])
        assert vote(samples, 0.0) == (True, None, 0.0)
        assert vote(samples, 0.1)[0] is False


class TestSimulateParallel:
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
    def test_bad_tau_rejected_first(self, tau, message):
        # With no samples and a bad alpha too, tau is still named first,
        # as in route_cascade.
        for samples, alpha in ((sc_votes(["a"] * 10), DEFAULT_ALPHA), ([], -1.0)):
            with pytest.raises(ValidationError) as caught:
                simulate_parallel(samples, tau, alpha)
            assert str(caught.value) == message

    def test_matches_reference_vote(self):
        samples = sc_votes(["a", "a", "b", "c"], tokens=[10, 44, 20, 5])
        result = simulate_parallel(samples, 0.5, alpha=0.5)
        assert result == (*reference_vote(samples, 0.5, 0.5), 44, False)

    def test_no_samples_rejected(self):
        with pytest.raises(ValidationError) as caught:
            simulate_parallel([], 0.5)
        assert str(caught.value) == "a cascade vote needs at least one sample"

    def test_fcv_all_refuse_stops_at_first_completion(self):
        samples = [
            make_sample(tokens=t, confidence=1.0, refusal=True)
            for t in (9, 7, 12, 30, 8, 20, 11, 40, 15, 25)
        ]
        accepted, _, _, decision_latency_tokens, stopped = simulate_parallel(samples, 0.6, alpha=0.5)
        assert accepted is False
        assert decision_latency_tokens == 7
        assert stopped is True

    def test_unanimous_stops_once_share_clears_tau(self):
        samples = sc_votes(["a", "a", "a"], tokens=[5, 9, 100])
        accepted, _, _, decision_latency_tokens, stopped = simulate_parallel(samples, 0.6, alpha=0.5)
        assert accepted is True
        assert decision_latency_tokens == 9
        assert stopped is True

    @given(
        answers=st.lists(
            st.sampled_from(["a", "b", "c", None]), min_size=1, max_size=10
        ),
        tau=st.sampled_from([0.0, 0.3, 0.5, 0.6, 0.9, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_walk_decision_equals_full_tally(self, answers, tau, data):
        tokens = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=300),
                min_size=len(answers),
                max_size=len(answers),
            )
        )
        samples = sc_votes(answers, tokens=tokens)
        accepted, answer, share, decision_latency_tokens, stopped = simulate_parallel(
            samples, tau, alpha=0.5
        )
        assert (accepted, answer, share) == reference_vote(samples, 0.5, tau)
        assert decision_latency_tokens <= max(tokens)


class TestSelectSamples:
    def test_rcv_uses_full_ladder(self):
        q = make_question(samples=list(reversed(make_ladder(5))))
        picked = select_samples(q, "rcv", 10)
        assert [s.confidence_level for s in picked] == [i / 10 for i in range(1, 11)]

    def test_rcv_requires_k_ten(self):
        q = make_question(samples=make_ladder(5))
        with pytest.raises(ValidationError):
            select_samples(q, "rcv", 5)

    def test_fcv_takes_top_level_samples(self):
        samples = [make_sample("a", True, 10, confidence=1.0) for _ in range(10)]
        q = make_question(samples=samples)
        picked = select_samples(q, "fcv", 10)
        assert len(picked) == 10
        assert all(s.confidence_level == 1.0 for s in picked)

    def test_fcv_partial_k(self):
        samples = [make_sample("a", True, 10, confidence=1.0) for _ in range(10)]
        q = make_question(samples=samples)
        assert len(select_samples(q, "fcv", 3)) == 3

    def test_fcv_insufficient_rejected(self):
        q = make_question(samples=make_ladder(10))  # one sample per level
        with pytest.raises(ValidationError):
            select_samples(q, "fcv", 2)

    def test_sc_takes_untagged(self):
        q = make_question()
        assert len(select_samples(q, "sc", 10)) == 10

    def test_sc_rejects_tagged_only_question(self):
        q = make_question(samples=make_ladder(5))
        with pytest.raises(ValidationError):
            select_samples(q, "sc", 10)

    def test_zero_k_rejected(self):
        with pytest.raises(ValidationError) as caught:
            select_samples(make_question(), "sc", 0)
        assert str(caught.value) == "k must be a positive integer, got 0"

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            select_samples(make_question(), "best", 10)


class TestRouteCascade:
    def accepted_fixture(self, pricing):
        samples = sc_votes(
            ["a"] * 6 + ["b"] * 4,
            tokens=[30, 40, 50, 60, 70, 80, 90, 100, 110, 120],
        )
        q = make_question("q", input_tokens=100, samples=samples, llm_correct=False)
        profile = DatasetProfile.from_questions([q])
        return q, profile

    def test_accepted_outcome(self, pricing):
        q, profile = self.accepted_fixture(pricing)
        out = route_cascade(q, 0.6, profile, pricing, scheme="sc")
        assert out.routed is False
        assert out.accepted_answer == "a"
        assert out.quality == 1.0  # voted answer is the correct one
        assert out.llm_cost == 0.0
        # input charged once, all ten completions charged in full
        expected_slm = (0.02 * 100 + 0.08 * sum(range(30, 121, 10))) / 1e6
        assert out.slm_cost == pytest.approx(expected_slm, rel=1e-12)

    def test_rejected_outcome_adds_llm_term(self, pricing):
        q, profile = self.accepted_fixture(pricing)
        out = route_cascade(q, 0.9, profile, pricing, scheme="sc")
        assert out.routed is True
        assert out.accepted_answer is None
        assert out.quality == 0.0  # actual mode, llm record is wrong
        assert out.llm_cost == llm_question_cost(q, profile, pricing)
        kept = route_cascade(q, 0.6, profile, pricing, scheme="sc")
        # rejection does not refund any small-model work
        assert out.slm_cost == kept.slm_cost

    def test_early_stop_never_changes_cost(self, pricing):
        # unanimous vote stops the walk early at low tau but bills all K
        samples = sc_votes(["a"] * 10, tokens=list(range(10, 110, 10)))
        q = make_question("q", samples=samples)
        profile = DatasetProfile.from_questions([q])
        early = route_cascade(q, 0.2, profile, pricing, scheme="sc")
        late = route_cascade(q, 1.0, profile, pricing, scheme="sc")
        assert early.decision_latency_tokens < late.decision_latency_tokens
        assert early.slm_cost == late.slm_cost

    def test_wrong_majority_scores_zero(self, pricing):
        samples = sc_votes(["b"] * 7 + ["a"] * 3)
        q = make_question("q", samples=samples)
        profile = DatasetProfile.from_questions([q])
        out = route_cascade(q, 0.6, profile, pricing, scheme="sc")
        assert out.routed is False
        assert out.accepted_answer == "b"
        assert out.quality == 0.0

    def test_all_refuse_tau_zero_accepts_nothing(self, pricing):
        samples = [make_sample(tokens=8, confidence=1.0, refusal=True)] * 10
        q = make_question("q", samples=samples)
        profile = DatasetProfile.from_questions([q])
        out = route_cascade(q, 0.0, profile, pricing, scheme="fcv")
        assert out.routed is False
        assert out.accepted_answer is None
        assert out.quality == 0.0

    def test_perfect_mode_on_rejection(self, pricing):
        q, profile = self.accepted_fixture(pricing)
        out = route_cascade(q, 0.9, profile, pricing, scheme="sc", assume_perfect=True)
        assert out.quality == 1.0

    def test_rcv_k_subset_rejected(self, pricing):
        q = make_question("q", samples=make_ladder(6))
        profile = DatasetProfile.from_questions([q])
        with pytest.raises(ValidationError):
            route_cascade(q, 0.5, profile, pricing, scheme="rcv", k=5)

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
        # alpha and the scheme are bad too: tau is checked first, as
        # sweep_cascade checks its thresholds before anything else.
        q, profile = self.accepted_fixture(pricing)
        with pytest.raises(ValidationError) as caught:
            route_cascade(q, tau, profile, pricing, scheme="nope", alpha=-1.0)
        assert str(caught.value) == message


class TestSweepCascade:
    def test_point_layout(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        sweep = sweep_cascade(questions, profile, pricing, scheme="rcv")
        points = sweep.points
        assert len(points) == len(DEFAULT_TAUS) + 2
        assert points[0].label == "slm_only"
        assert points[-1].label == "llm_only"
        assert points[-1].cost == 1.0

    def test_routed_counts_and_costs_nondecreasing(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        sweep = sweep_cascade(questions, profile, pricing, scheme="rcv")
        grid = sweep.points[1:-1]
        counts = [p.n_routed for p in grid]
        costs = [p.cost for p in grid]
        assert counts == sorted(counts)
        assert costs == sorted(costs)

    def test_slm_only_point_accepts_everything(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        sweep = sweep_cascade(questions, profile, pricing, scheme="rcv")
        assert sweep.points[0].n_routed == 0

    def test_sc_and_fcv_schemes(self, synth_sc, synth_fcv, pricing):
        for (questions, profile), scheme in ((synth_sc, "sc"), (synth_fcv, "fcv")):
            sweep = sweep_cascade(questions, profile, pricing, scheme=scheme)
            assert len(sweep.points) == len(DEFAULT_TAUS) + 2

    def test_custom_taus(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        sweep = sweep_cascade(questions, profile, pricing, taus=[0.25, 0.75])
        assert [p.tau for p in sweep.points[1:-1]] == [0.25, 0.75]

    def test_latencies_positive(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        outcomes = [route_cascade(q, 0.6, profile, pricing) for q in questions]
        assert all(o.decision_latency_tokens >= 1 for o in outcomes)

    def test_each_level_weighed_once_per_sweep(self, synth_rcv, pricing, monkeypatch):
        questions, profile = synth_rcv
        expected = sweep_cascade(questions, profile, pricing, alpha=0.7)
        weighed = []

        def counting(level, alpha):
            weighed.append(level)
            return vote_weight(level, alpha)

        monkeypatch.setattr(cascade, "vote_weight", counting)
        assert sweep_cascade(questions, profile, pricing, alpha=0.7) == expected
        assert sorted(weighed) == list(CONFIDENCE_LEVELS)

    def test_level_no_sample_carries_is_never_weighed(self, synth_rcv, synth_fcv, pricing):
        # At alpha 2 level 0.1 weighs 0.55 + 2 * (0.1 - 0.55) < 0; fcv
        # samples all sit at level 1.0, so an fcv sweep never meets it.
        questions, profile = synth_fcv
        sweep = sweep_cascade(questions, profile, pricing, scheme="fcv", alpha=2.0)
        assert len(sweep.points) == len(DEFAULT_TAUS) + 2
        with pytest.raises(ValidationError, match="nonpositive vote weight for confidence 0.1"):
            sweep_cascade(*synth_rcv, pricing, alpha=2.0)


def scheme_questions(scheme, votes):
    """One question per ``(codes, tokens)`` pair, with ten samples whose
    codes name answers "a".."d" (-1 refuses) at the scheme's levels."""
    questions = []
    for n, (codes, tokens) in enumerate(votes):
        samples = []
        for i, (code, length) in enumerate(zip(codes, tokens)):
            level = {"rcv": CONFIDENCE_LEVELS[i], "fcv": 1.0, "sc": None}[scheme]
            if code < 0:
                samples.append(make_sample(tokens=length, confidence=level, refusal=True))
            else:
                samples.append(make_sample("abcd"[code], code == 0, length, level))
        questions.append(make_question(f"q{n}", samples=samples))
    return questions


@st.composite
def latency_sweeps(draw):
    scheme = draw(st.sampled_from(["rcv", "sc", "fcv"]))
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]))
    tau = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([i / 20 for i in range(21)])))
    ten = dict(min_size=10, max_size=10)
    votes = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=-1, max_value=3), **ten),
                st.lists(st.integers(min_value=1, max_value=60), **ten),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return scheme, alpha, tau, votes


class TestSweepLatency:
    """A cascade sweep's AGL/AROL come from the same single vote per
    question as its curve, and equal the ``route_cascade`` oracle's."""

    # The exact-tie configurations of TestEarlyStopAgreesWithDecision
    # (test_kernels.py), where a share equals tau and the completion-order
    # sums round across it: two accepts and a reject.
    @example(("rcv", 0.5, 0.45, [([2, 0, 2, 2, 1, 2, 0, 2, -1, -1], [18, 22, 58, 53, 2, 55, 44, 11, 8, 3])]))
    @example(("rcv", 1.0, 0.4, [([3, 1, -1, 0, 3, 3, 2, 1, 2, 3], [60, 4, 27, 14, 7, 36, 28, 45, 39, 16])]))
    @example(("rcv", 0.5, 0.55, [([0, 1, -1, 1, 0, -1, 0, 1, 1, 1], [56, 40, 28, 3, 59, 57, 36, 58, 44, 32])]))
    @given(latency_sweeps())
    @settings(max_examples=300, deadline=None)
    def test_latency_matches_route_cascade_oracle(self, config):
        scheme, alpha, tau, votes = config
        questions = scheme_questions(scheme, votes)
        profile = DatasetProfile.from_questions(questions)
        pricing = PricingSchedule()
        got = sweep_cascade(
            questions, profile, pricing, scheme=scheme, alpha=alpha, latency_tau=tau
        ).latency
        want = latency_report(
            route_cascade(q, tau, profile, pricing, scheme, alpha=alpha) for q in questions
        )
        assert (got.agl, got.arol, got.n_accepted, got.n_rejected) == (
            want.agl,
            want.arol,
            want.n_accepted,
            want.n_rejected,
        )

    def test_default_threshold(self, synth_rcv, pricing):
        questions, profile = synth_rcv
        want = latency_report(route_cascade(q, 0.6, profile, pricing) for q in questions)
        assert sweep_cascade(questions, profile, pricing).latency == want

    @pytest.mark.parametrize("tau", [float("nan"), -0.1, 1.5])
    def test_bad_latency_tau_rejected(self, synth_rcv, pricing, tau):
        with pytest.raises(ValidationError, match=r"thresholds must lie in \[0, 1\]"):
            sweep_cascade(*synth_rcv, pricing, latency_tau=tau)

    def test_pre_sweep_has_no_latency(self, synth_rcv, pricing):
        assert sweep_pre(*synth_rcv, pricing).latency is None
        assert sweep_pre(*synth_rcv, pricing, score_source="refusal").latency is None

    def test_cli_votes_each_question_once(self, tmp_path, capsys, monkeypatch):
        dataset = tmp_path / "q.jsonl"
        assert cli.main(["synth", str(dataset), "--n", "30", "--seed", "4"]) == 0
        calls = {"_cascade_row": 0, "cascade_vote": 0, "vote_weight": 0}
        for name in calls:
            original = getattr(cascade, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cascade, name, counting)
        argv = ["sweep", str(dataset), "--mode", "cascade", "--golden", "--out-dir", str(tmp_path / "run")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls["_cascade_row"] == 30
        assert calls["cascade_vote"] == 30
        assert calls["vote_weight"] <= len(CONFIDENCE_LEVELS)
