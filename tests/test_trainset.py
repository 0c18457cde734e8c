"""Preference-pair mining, refusal corpus construction, and the loss."""

import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routerlab.records import (
    CONFIDENCE_LEVELS,
    REJECTION_TEXT,
    PreferencePair,
    ValidationError,
    refusal_prompt,
)
from routerlab.trainset import (
    DPO_BETA,
    SFT_WEIGHT,
    ResponseSample,
    TrainingQuestion,
    build_dpo_pair,
    _dpo_pair,
    build_refusal_examples,
    combined_loss,
    refusal_targets,
    training_config,
)


def resp(text, correct, tokens):
    return ResponseSample(text=text, correct=correct, tokens=tokens)


def question(samples, qid="q1", text="What is 2+2?"):
    return TrainingQuestion(id=qid, question=text, samples=tuple(samples))


def ten(correct_count, correct_tokens=20, wrong_tokens=90):
    samples = [
        resp(f"yes-{i}", True, correct_tokens) for i in range(correct_count)
    ] + [
        resp(f"no-{i}", False, wrong_tokens) for i in range(10 - correct_count)
    ]
    return question(samples)


class TestBuildDpoPair:
    def test_selection_oracle(self):
        q = question(
            [
                resp("short right", True, 80),
                resp("long right", True, 200),
                resp("long wrong", False, 150),
                resp("short wrong", False, 90),
            ]
        )
        pair = build_dpo_pair(q.id, q.samples)
        assert pair.chosen == "short right"
        assert pair.chosen_tokens == 80
        assert pair.rejected == "long wrong"
        assert pair.rejected_tokens == 150

    def test_ratio_boundary_excluded(self):
        # 120 == 1.5 * 80 exactly: not strictly longer, so no pair
        q = question([resp("right", True, 80), resp("wrong", False, 120)])
        assert build_dpo_pair(q.id, q.samples) is None

    def test_just_over_boundary_included(self):
        q = question([resp("right", True, 80), resp("wrong", False, 121)])
        pair = build_dpo_pair(q.id, q.samples)
        assert pair.rejected_tokens == 121

    def test_no_correct_sample(self):
        q = question([resp("wrong", False, 50)])
        assert build_dpo_pair(q.id, q.samples) is None

    def test_no_qualifying_incorrect_sample(self):
        q = question([resp("right", True, 80), resp("wrong", False, 100)])
        assert build_dpo_pair(q.id, q.samples) is None

    def test_chosen_tie_takes_first(self):
        q = question(
            [
                resp("first short", True, 80),
                resp("second short", True, 80),
                resp("wrong", False, 200),
            ]
        )
        assert build_dpo_pair(q.id, q.samples).chosen == "first short"

    def test_rejected_tie_takes_first(self):
        q = question(
            [
                resp("right", True, 80),
                resp("first long", False, 200),
                resp("second long", False, 200),
            ]
        )
        assert build_dpo_pair(q.id, q.samples).rejected == "first long"

    def test_min_ratio_floor(self):
        q = question([resp("right", True, 80), resp("wrong", False, 200)])
        with pytest.raises(ValidationError):
            build_dpo_pair(q.id, q.samples, min_ratio=1.4)

    def test_min_ratio_can_be_raised(self):
        q = question([resp("right", True, 80), resp("wrong", False, 150)])
        assert build_dpo_pair(q.id, q.samples, min_ratio=2.0) is None
        assert build_dpo_pair(q.id, q.samples, min_ratio=2) is None

    @pytest.mark.parametrize(
        "min_ratio, message",
        [
            ("2", "min_ratio must be a number, got '2'"),
            (True, "min_ratio must be a number, got True"),
            (10**400, "min_ratio is too large for a float, got an integer of 1329 bits"),
        ],
        ids=["string", "bool", "huge_int"],
    )
    def test_non_number_min_ratio_rejected(self, min_ratio, message):
        q = question([resp("right", True, 80), resp("wrong", False, 200)])
        with pytest.raises(ValidationError) as caught:
            build_dpo_pair(q.id, q.samples, min_ratio=min_ratio)
        assert str(caught.value) == message

    def test_correct_rejected_opt_in(self):
        q = question([resp("terse", True, 10), resp("rambling", True, 100)])
        assert build_dpo_pair(q.id, q.samples) is None
        pair = build_dpo_pair(q.id, q.samples, include_correct_rejected=True)
        assert pair.rejected == "rambling"

    def test_chosen_never_rejects_itself(self):
        q = question([resp("only", True, 10)])
        assert (
            build_dpo_pair(q.id, q.samples, include_correct_rejected=True) is None
        )


def reference_pair(verdicts, min_ratio, include_correct_rejected):
    """The pair rule by brute force over ``(correct, tokens)`` rows whose
    texts are ``t0``, ``t1``, ...: the earliest of the shortest correct
    rows, and the earliest of the longest other allowed rows strictly
    above ``min_ratio`` times its length."""
    correct = [i for i, (is_correct, _) in enumerate(verdicts) if is_correct]
    if not correct:
        return None
    chosen = min(correct, key=lambda i: (verdicts[i][1], i))
    allowed = [
        i
        for i, (is_correct, tokens) in enumerate(verdicts)
        if i != chosen
        and (include_correct_rejected or not is_correct)
        and tokens > min_ratio * verdicts[chosen][1]
    ]
    if not allowed:
        return None
    rejected = min(allowed, key=lambda i: (-verdicts[i][1], i))
    return PreferencePair("q", f"t{chosen}", f"t{rejected}", verdicts[chosen][1], verdicts[rejected][1])


class TestPairRuleOnColumns:
    """``build`` calls the column rule ``_dpo_pair``; ``build_dpo_pair``
    over records wraps it. Both give the brute-force pair. Small token
    counts make ties and exact 1.5x lengths common."""

    @given(
        st.lists(st.tuples(st.booleans(), st.integers(1, 12)), min_size=1, max_size=12),
        st.sampled_from([1.5, 2, 2.5]) | st.floats(1.5, 4.0),
        st.booleans(),
    )
    @example([(True, 2), (False, 3)], 1.5, False)  # exactly 1.5x: no pair
    @example([(True, 2), (False, 4), (True, 2), (False, 4)], 1.5, False)  # ties: earliest
    @example([(True, 2), (True, 6), (False, 6)], 1.5, True)  # a correct row rejected first
    @example([(False, 2), (False, 9)], 1.5, True)  # no correct completion
    @settings(max_examples=400, deadline=None)
    def test_columns_records_and_reference_agree(self, verdicts, min_ratio, include_correct_rejected):
        texts = [f"t{i}" for i in range(len(verdicts))]
        correct = [is_correct for is_correct, _ in verdicts]
        tokens = [count for _, count in verdicts]
        expected = reference_pair(verdicts, min_ratio, include_correct_rejected)
        samples = [resp(*row) for row in zip(texts, correct, tokens)]
        assert build_dpo_pair("q", samples, min_ratio, include_correct_rejected) == expected
        q = question(samples, qid="q")
        assert (q.texts, q.correct, q.tokens) == (tuple(texts), tuple(correct), tuple(tokens))
        assert _dpo_pair("q", q.texts, q.correct, q.tokens, min_ratio, include_correct_rejected) == expected

    def test_min_ratio_checked_before_any_completion(self):
        # As in build_dpo_pair: a bad ratio fails even where no pair exists.
        with pytest.raises(ValidationError, match="min_ratio must be a finite number >= 1.5"):
            _dpo_pair("q", ("a",), (False,), (3,), 1.2, False)


class TestBuildRefusalExamples:
    def test_exactly_ten_examples(self):
        examples = build_refusal_examples(ten(6), seed=0)
        assert len(examples) == 10
        assert [e.threshold for e in examples] == list(CONFIDENCE_LEVELS)

    def test_prompt_template_bit_exact(self):
        q = ten(6)
        for e in build_refusal_examples(q, seed=0):
            assert e.prompt == refusal_prompt(e.threshold, q.question)

    def test_answer_iff_accuracy_clears_threshold(self):
        q = ten(6)
        correct_texts = {s.text for s in q.samples if s.correct}
        for e in build_refusal_examples(q, seed=0):
            if e.threshold <= 0.6:
                assert e.target in correct_texts
            else:
                assert e.target == REJECTION_TEXT

    def test_boundary_threshold_answers(self):
        # accuracy 0.7 answers at threshold 0.7: the comparison is inclusive
        examples = build_refusal_examples(ten(7), seed=0)
        by_threshold = {e.threshold: e for e in examples}
        assert by_threshold[0.7].target != REJECTION_TEXT
        assert by_threshold[0.8].target == REJECTION_TEXT

    def test_zero_accuracy_always_refuses(self):
        for e in build_refusal_examples(ten(0), seed=0):
            assert e.target == REJECTION_TEXT

    def test_full_accuracy_never_refuses(self):
        for e in build_refusal_examples(ten(10), seed=0):
            assert e.target != REJECTION_TEXT

    def test_same_seed_is_deterministic(self):
        assert build_refusal_examples(ten(5), seed=9) == build_refusal_examples(
            ten(5), seed=9
        )

    def test_examples_depend_only_on_question_id_and_seed(self):
        # the per-question stream is keyed by id, not by corpus position
        q = ten(5)
        alone = build_refusal_examples(q, seed=9)
        assert alone == build_refusal_examples(q, seed=9)

    def test_requires_exactly_ten_samples(self):
        q = question([resp("a", True, 5)] * 9)
        with pytest.raises(ValidationError):
            build_refusal_examples(q, seed=0)

    @pytest.mark.parametrize("count", [9, 11])
    @pytest.mark.parametrize("correct", [False, True], ids=["none_correct", "all_correct"])
    def test_targets_name_the_completion_count(self, count, correct):
        # The count is checked first, also where nothing would be drawn.
        q = question([resp(f"a{i}", correct, 5) for i in range(count)])
        for call in (refusal_targets, build_refusal_examples):
            with pytest.raises(ValidationError) as caught:
                call(q, 0)
            assert str(caught.value) == f"accuracy estimation uses exactly 10 samples, got {count}"


class TestCombinedLoss:
    def test_equal_policies_give_ln2(self):
        terms = combined_loss(
            chosen_logp_policy=-12.5,
            chosen_logp_ref=-12.5,
            rejected_logp_policy=-20.0,
            rejected_logp_ref=-20.0,
            chosen_token_count=25,
        )
        assert terms.dpo == pytest.approx(math.log(2.0), abs=1e-12)

    def test_known_margin_oracle(self):
        # margin 2 with beta 1: softplus(-2) = 0.1269280110429725
        terms = combined_loss(
            chosen_logp_policy=2.0,
            chosen_logp_ref=0.0,
            rejected_logp_policy=0.0,
            rejected_logp_ref=0.0,
            chosen_token_count=1,
        )
        assert terms.dpo == pytest.approx(0.1269280110429725, abs=1e-12)

    def test_matches_log_sigmoid_form(self):
        rng = random.Random(5)
        for _ in range(30):
            cp, cr, rp, rr = (rng.uniform(-30, 0) for _ in range(4))
            terms = combined_loss(cp, cr, rp, rr, chosen_token_count=10)
            margin = DPO_BETA * ((cp - cr) - (rp - rr))
            expected = -math.log(1.0 / (1.0 + math.exp(-margin)))
            assert terms.dpo == pytest.approx(expected, rel=1e-10)

    def test_sft_is_length_normalized_nll(self):
        terms = combined_loss(-30.0, -30.0, -40.0, -40.0, chosen_token_count=15)
        assert terms.sft == 2.0

    def test_total_combines_with_default_weight(self):
        terms = combined_loss(-10.0, -9.0, -20.0, -18.0, chosen_token_count=5)
        assert terms.total == terms.dpo + SFT_WEIGHT * terms.sft

    def test_monotone_decreasing_in_margin(self):
        losses = [
            combined_loss(m, 0.0, 0.0, 0.0, chosen_token_count=1).dpo
            for m in (-4.0, -1.0, 0.0, 1.0, 4.0)
        ]
        assert losses == sorted(losses, reverse=True)

    def test_extreme_margins_stay_finite(self):
        low = combined_loss(-1000.0, 0.0, 0.0, 0.0, chosen_token_count=1)
        high = combined_loss(1000.0, 0.0, 0.0, 0.0, chosen_token_count=1)
        assert math.isfinite(low.dpo) and low.dpo > 900
        assert high.dpo == 0.0

    def test_beta_scaling(self):
        mild = combined_loss(1.0, 0.0, 0.0, 0.0, chosen_token_count=1, beta=1.0)
        sharp = combined_loss(1.0, 0.0, 0.0, 0.0, chosen_token_count=1, beta=4.0)
        assert sharp.dpo < mild.dpo

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            combined_loss(0.0, 0.0, 0.0, 0.0, chosen_token_count=0)
        with pytest.raises(ValidationError):
            combined_loss(0.0, 0.0, 0.0, 0.0, chosen_token_count=1, beta=0.0)
        with pytest.raises(ValidationError):
            combined_loss(0.0, 0.0, 0.0, 0.0, chosen_token_count=1, sft_weight=-0.1)

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("beta", math.nan, "beta must be positive"),
            ("beta", math.inf, "beta must be positive"),
            ("sft_weight", math.nan, "sft_weight must be >= 0"),
            ("sft_weight", math.inf, "sft_weight must be >= 0"),
        ],
    )
    def test_non_finite_knobs_rejected(self, knob, value, message):
        with pytest.raises(ValidationError, match=message):
            combined_loss(-1.0, -2.0, -3.0, -4.0, chosen_token_count=1, **{knob: value})

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("beta", "1", "beta must be a number, got '1'"),
            ("beta", 10**400, "beta is too large for a float, got an integer of 1329 bits"),
            ("sft_weight", True, "sft_weight must be a number, got True"),
            ("sft_weight", "0.2", "sft_weight must be a number, got '0.2'"),
        ],
        ids=["string_beta", "huge_int_beta", "bool_sft_weight", "string_sft_weight"],
    )
    def test_non_number_knobs_rejected(self, knob, value, message):
        with pytest.raises(ValidationError) as caught:
            combined_loss(-1.0, -2.0, -3.0, -4.0, chosen_token_count=1, **{knob: value})
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "name", ["chosen_logp_policy", "chosen_logp_ref", "rejected_logp_policy", "rejected_logp_ref"]
    )
    @pytest.mark.parametrize(
        "value, problem",
        [
            (math.nan, "must be a finite number, got nan"),
            (-math.inf, "must be a finite number, got -inf"),
            ("-1.0", "must be a number, got '-1.0'"),
            (True, "must be a number, got True"),
        ],
        ids=["nan", "minus_inf", "string", "bool"],
    )
    def test_bad_log_probability_named_first(self, name, value, problem):
        # The count and both knobs are bad too: the log-probabilities come first.
        logps = dict(
            chosen_logp_policy=-1.0, chosen_logp_ref=-2.0, rejected_logp_policy=-3.0, rejected_logp_ref=-4.0
        )
        logps[name] = value
        with pytest.raises(ValidationError) as caught:
            combined_loss(**logps, chosen_token_count=0, beta=0.0, sft_weight=-1.0)
        assert str(caught.value) == f"{name} {problem}"

    def test_log_probabilities_checked_in_signature_order(self):
        with pytest.raises(ValidationError) as caught:
            combined_loss(-1.0, "x", math.nan, "y", chosen_token_count=1)
        assert str(caught.value) == "chosen_logp_ref must be a number, got 'x'"

    def test_int_log_probabilities_accepted(self):
        assert combined_loss(-1, -2, -3, -4, 1) == combined_loss(-1.0, -2.0, -3.0, -4.0, 1)

    def test_int_knobs_accepted(self):
        assert combined_loss(-1.0, -2.0, -3.0, -4.0, 1, beta=2, sft_weight=0) == combined_loss(
            -1.0, -2.0, -3.0, -4.0, 1, beta=2.0, sft_weight=0.0
        )


class TestTrainingConfig:
    def test_frozen_hyperparameters(self):
        cfg = training_config()
        assert cfg["adapter"] == {"type": "lora", "rank": 8, "alpha": 16, "dropout": 0.1}
        assert cfg["optimizer"] == {
            "learning_rate": 1e-4,
            "schedule": "cosine",
            "warmup_fraction": 0.1,
        }
        assert cfg["batch"] == {"per_device": 1, "gradient_accumulation": 4}
        assert cfg["max_sequence_length"] == 1024
        assert cfg["epochs"] == 1
        assert cfg["loss"] == {"beta": DPO_BETA, "sft_weight": SFT_WEIGHT}

    def test_returns_fresh_copy(self):
        a = training_config()
        a["epochs"] = 99
        assert training_config()["epochs"] == 1


class TestValidation:
    def test_response_sample(self):
        with pytest.raises(ValidationError):
            ResponseSample(text="", correct=True, tokens=5)
        with pytest.raises(ValidationError):
            ResponseSample(text="x", correct=True, tokens=0)

    def test_training_question(self):
        with pytest.raises(ValidationError):
            TrainingQuestion(id="", question="q", samples=(resp("a", True, 1),))
        with pytest.raises(ValidationError):
            TrainingQuestion(id="q", question="q", samples=())

    def test_training_samples_stored_as_a_tuple(self):
        samples = [resp("a", True, 1), resp("b", False, 2)]
        assert TrainingQuestion(id="q", question="q", samples=samples).samples == tuple(samples)

    @pytest.mark.parametrize("samples", [None, 5], ids=["none", "int"])
    def test_training_samples_not_iterable_rejected(self, samples):
        with pytest.raises(ValidationError) as excinfo:
            TrainingQuestion("t", "Q", samples)
        assert str(excinfo.value) == "question 't': samples must hold ResponseSample values"

    def test_training_non_record_item_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            TrainingQuestion("t", "Q", [resp("a", True, 1), {"text": "b"}])
        assert str(excinfo.value) == "question 't': samples must hold ResponseSample values"

    def test_pair_question_id(self):
        # The one pair field that does not come from a checked sample.
        with pytest.raises(ValidationError, match="question_id must be a non-empty string"):
            build_dpo_pair("", ten(2).samples)


# Non-empty text of any code point UTF-8 can encode: no lone surrogate.
TEXT = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=12)
SAMPLES = st.builds(
    ResponseSample, text=TEXT, correct=st.booleans(), tokens=st.integers(1, 10**6)
)


def training_questions(min_samples, max_samples):
    return st.builds(
        TrainingQuestion,
        id=TEXT,
        question=TEXT,
        samples=st.lists(SAMPLES, min_size=min_samples, max_size=max_samples),
    )


def assert_constructor_agrees(record):
    """The constructor accepts ``record``'s own fields and makes an
    equal record with the same repr."""
    fields = {name: getattr(record, name) for name in record._fields}
    again = type(record)(**fields)
    assert again == record
    assert repr(again) == repr(record)


class TestBuildersMatchConstructors:
    """Every record the builders return is one the constructor accepts
    and makes the same from the record's own fields."""

    @given(training_questions(10, 10), st.integers(-(2**64), 2**64))
    @settings(max_examples=200, deadline=None)
    def test_refusal_examples(self, question, seed):
        examples = build_refusal_examples(question, seed)
        assert len(examples) == len(CONFIDENCE_LEVELS)
        for example in examples:
            assert_constructor_agrees(example)

    @given(training_questions(1, 12), st.floats(1.5, 4.0), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_dpo_pair(self, question, min_ratio, include_correct_rejected):
        pair = build_dpo_pair(
            question.id,
            question.samples,
            min_ratio=min_ratio,
            include_correct_rejected=include_correct_rejected,
        )
        if pair is not None:
            assert_constructor_agrees(pair)


def reference_targets(qid, seed, texts, correct):
    """The draw rule written out from README: SHA-256 of ``seed:id`` as a
    big-endian integer; each level n/10 with n <= k takes the next base-k
    digit of it, least significant first, as the index of a correct
    completion in file order."""
    bits = int.from_bytes(hashlib.sha256(f"{seed}:{qid}".encode("utf-8")).digest(), "big")
    pool = [text for text, ok in zip(texts, correct) if ok]
    targets = []
    for n in range(1, 11):
        if n <= len(pool):
            targets.append(pool[bits % len(pool)])
            bits //= len(pool)
        else:
            targets.append(REJECTION_TEXT)
    return tuple(targets)


def drawn_indices(k, levels, n_ids=20_000):
    """How often each tuple of drawn indices, at the first ``levels``
    levels, comes up over ``n_ids`` fixed ids of a question with ``k``
    correct completions."""
    samples = tuple(
        resp(f"c{i}", True, 5) if i < k else resp(f"w{i}", False, 5) for i in range(10)
    )
    counts = Counter()
    for n in range(n_ids):
        targets = refusal_targets(TrainingQuestion(f"id-{n}", "Q", samples), 0)
        counts[tuple(int(target[1:]) for target in targets[:levels])] += 1
    return counts


def assert_uniform(counts, cells, n_ids=20_000):
    """Every one of ``cells`` equally likely cells is within 4.5 standard
    deviations of its binomial mean."""
    p = 1 / len(cells)
    spread = 4.5 * math.sqrt(n_ids * p * (1 - p))
    assert set(counts) == set(cells)
    for cell in cells:
        assert abs(counts[cell] - n_ids * p) <= spread, (cell, counts[cell], n_ids * p, spread)


class TestRefusalDraw:
    """``refusal_targets`` reads its draws straight off the SHA-256 digest
    of ``seed:id``, one base-k digit per reached level."""

    @given(
        TEXT,
        st.integers(-(2**64), 2**64),
        st.lists(st.booleans(), min_size=10, max_size=10),
    )
    @example("é", 2**64, [True] * 10)
    @example("q", -(2**64), [False] * 10)
    @example("q", 10**400, [False, True] * 5)  # any int is a seed, huge ones too
    @settings(max_examples=300, deadline=None)
    def test_matches_the_written_rule(self, qid, seed, correct):
        texts = [f"t{i}" for i in range(10)]
        q = question([resp(t, ok, 5) for t, ok in zip(texts, correct)], qid=qid)
        assert refusal_targets(q, seed) == reference_targets(qid, seed, texts, correct)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_first_level_index_is_uniform(self, k):
        assert_uniform(drawn_indices(k, 1), [(i,) for i in range(k)])

    def test_first_two_levels_are_independent(self):
        # With k = 3, the (level 0.1, level 0.2) pair is uniform on 9 cells.
        assert_uniform(drawn_indices(3, 2), [(i, j) for i in range(3) for j in range(3)])


class TestSeedType:
    @pytest.mark.parametrize("seed", [True, "1", 1.0, None], ids=repr)
    @pytest.mark.parametrize("correct", [0, 6], ids=["none_correct", "six_correct"])
    def test_non_int_seed_rejected(self, seed, correct):
        # Checked before a question with nothing to draw returns, so the
        # error does not depend on the question.
        for call in (refusal_targets, build_refusal_examples):
            with pytest.raises(ValidationError) as caught:
                call(ten(correct), seed)
            assert str(caught.value) == f"seed must be an integer, got {seed!r}"
