"""The cascade vote: hand tallies, the early-stop walk, and its properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routerlab import cascade

# The vote has one plain-Python implementation; the "pure" id keeps the
# test names it has always had.
IMPLEMENTATIONS = [pytest.param(cascade, id="pure")]


@pytest.mark.parametrize("mod", IMPLEMENTATIONS)
class TestVoteMasses:
    def test_hand_tally(self, mod):
        # two A votes (1.0 + 0.55), one B (0.775), one refusal (0.325)
        codes = [0, 0, 1, -1]
        weights = [1.0, 0.55, 0.775, 0.325]
        masses, total = mod._vote_masses(codes, weights, 2)
        assert list(masses) == [1.0 + 0.55, 0.775]
        assert total == ((1.0 + 0.55) + 0.775) + 0.325

    def test_refusal_inflates_denominator_only(self, mod):
        masses, total = mod._vote_masses([0, -1], [1.0, 1.0], 1)
        assert list(masses) == [1.0]
        assert total == 2.0

    def test_length_mismatch_rejected(self, mod):
        with pytest.raises(ValueError):
            mod._vote_masses([0, 1], [1.0], 2)

    def test_code_out_of_range_rejected(self, mod):
        with pytest.raises(ValueError):
            mod._vote_masses([2], [1.0], 2)
        with pytest.raises(ValueError):
            mod._vote_masses([-2], [1.0], 2)


@pytest.mark.parametrize("mod", IMPLEMENTATIONS)
class TestCascadeVote:
    def test_smoke_vote(self, mod):
        codes = [0, 0, 1, -1]
        weights = [1.0, 0.55, 0.775, 0.325]
        tokens = [10, 44, 20, 5]
        result = mod.cascade_vote(codes, weights, tokens, 0.5)
        accepted, winner, share, latency, stopped = result
        assert accepted is True
        assert winner == 0
        assert share == (1.0 + 0.55) / (((1.0 + 0.55) + 0.775) + 0.325)
        assert latency == 44
        assert stopped is False

    def test_single_sample_accept(self, mod):
        accepted, winner, share, latency, stopped = mod.cascade_vote(
            [0], [1.0], [17], 0.6
        )
        assert (accepted, winner, share, latency, stopped) == (True, 0, 1.0, 17, False)

    def test_all_refusals_reject_at_first_completion(self, mod):
        # no pending sample can vote, so rejection is certain immediately
        tokens = [9, 7, 12]
        accepted, winner, share, latency, stopped = mod.cascade_vote(
            [-1, -1, -1], [1.0, 1.0, 1.0], tokens, 0.6
        )
        assert accepted is False
        assert winner == -1
        assert share == 0.0
        assert latency == 7
        assert stopped is True

    def test_all_refusals_tau_zero_accepts(self, mod):
        accepted, winner, share, latency, stopped = mod.cascade_vote(
            [-1, -1], [1.0, 1.0], [4, 6], 0.0
        )
        assert accepted is True
        assert winner == -1
        assert latency == 4
        assert stopped is True

    def test_accept_certain_stops_early(self, mod):
        # same answer lands twice out of three: 2/3 >= 0.6 after token 9
        accepted, winner, share, latency, stopped = mod.cascade_vote(
            [0, 0, 0], [1.0, 1.0, 1.0], [5, 9, 100], 0.6
        )
        assert accepted is True
        assert latency == 9
        assert stopped is True

    def test_undecidable_until_last(self, mod):
        # a/b alternate, tau 0.6: best observed share never clears 0.6 and the
        # pending mass keeps acceptance possible until the final completion
        accepted, winner, share, latency, stopped = mod.cascade_vote(
            [0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0], [10, 20, 30, 40], 0.6
        )
        assert accepted is False
        assert latency == 40
        assert stopped is False

    def test_tie_breaks_toward_lowest_code(self, mod):
        accepted, winner, share, latency, stopped = mod.cascade_vote(
            [1, 0], [1.0, 1.0], [3, 8], 0.5
        )
        assert winner == 0
        assert share == 0.5

    def test_equal_tokens_complete_in_index_order(self, mod):
        # both refuse at the same length; the walk must still terminate after
        # the first of them deterministically
        accepted, winner, share, latency, stopped = mod.cascade_vote(
            [-1, -1], [1.0, 1.0], [5, 5], 0.3
        )
        assert latency == 5
        assert stopped is True

    def test_empty_vote_rejected(self, mod):
        with pytest.raises(ValueError):
            mod.cascade_vote([], [], [], 0.5)


@st.composite
def vote_configs(draw):
    k = draw(st.integers(min_value=1, max_value=10))
    n_candidates = draw(st.integers(min_value=1, max_value=4))
    codes = draw(
        st.lists(
            st.integers(min_value=-1, max_value=n_candidates - 1),
            min_size=k,
            max_size=k,
        )
    )
    weights = draw(
        st.lists(
            st.sampled_from([0.325, 0.55, 0.775, 1.0]),
            min_size=k,
            max_size=k,
        )
    )
    tokens = draw(st.lists(st.integers(min_value=1, max_value=500), min_size=k, max_size=k))
    tau = draw(st.sampled_from([0.0, 0.2, 0.5, 0.6, 0.8, 1.0]))
    return codes, weights, tokens, n_candidates, tau


class TestWalkProperties:
    @given(vote_configs())
    @settings(max_examples=300, deadline=None)
    def test_latency_bounded_by_sample_lengths(self, config):
        codes, weights, tokens, n_candidates, tau = config
        _, _, _, latency, stopped = cascade.cascade_vote(codes, weights, tokens, tau)
        assert min(tokens) <= latency <= max(tokens)
        if not stopped:
            assert latency == max(tokens)

    @given(vote_configs())
    @settings(max_examples=300, deadline=None)
    def test_walk_never_changes_the_decision(self, config):
        codes, weights, tokens, n_candidates, tau = config
        masses, total = cascade._vote_masses(codes, weights, n_candidates)
        full_accept = max(masses) / total >= tau
        accepted, _, _, _, _ = cascade.cascade_vote(codes, weights, tokens, tau)
        assert accepted == full_accept

    def test_deterministic(self):
        rng = random.Random(3)
        for _ in range(50):
            k = rng.randint(1, 8)
            codes = [rng.randint(-1, 2) for _ in range(k)]
            weights = [rng.choice([0.55, 1.0]) for _ in range(k)]
            tokens = [rng.randint(1, 99) for _ in range(k)]
            tau = rng.random()
            first = cascade.cascade_vote(codes, weights, tokens, tau)
            second = cascade.cascade_vote(codes, weights, tokens, tau)
            assert first == second
