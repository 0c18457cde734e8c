"""Acceptance gate: ten end-to-end guarantees the package must uphold.

Each test computes one criterion, records a single PASS/FAIL line (replayed
in the terminal summary), and then asserts. Tolerances are part of the
contract and are pinned inline rather than shared through helpers.
"""

import math
import random
import time
from collections import Counter

import pytest

from routerlab.cascade import route_cascade, simulate_parallel, sweep_cascade
from routerlab.io import SyntheticParams, generate_synthetic
from routerlab.metrics import golden_curve, latency_report, toa, toa_from_points, togr
from routerlab.prerouting import sweep_pre
from routerlab.records import (
    CONFIDENCE_LEVELS,
    REJECTION_TEXT,
    CurvePoint,
    DatasetProfile,
    PricingSchedule,
    SampleRecord,
)
from routerlab.trainset import (
    ResponseSample,
    TrainingQuestion,
    build_dpo_pair,
    build_refusal_examples,
    combined_loss,
)

from conftest import make_question, reference_vote, sc_votes, uniform_cost_question

PRICING = PricingSchedule()


def test_criterion_01_reference_curve_areas(acceptance_log):
    """The trapezoid area is exactly calibrated at both reference shapes."""
    start = time.perf_counter()
    diagonal = toa([], (0.0, 0.0), (1.0, 1.0))
    step = toa(
        [CurvePoint(cost=0.0, performance=1.0, tau=0.0, n_routed=0)],
        (0.0, 0.0),
        (1.0, 1.0),
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(diagonal - 0.5) <= 1e-12
        and abs(step - 1.0) <= 1e-12
        and elapsed < 1e-3
    )
    acceptance_log(
        1,
        ok,
        f"ToA(diagonal)={diagonal!r}, ToA(step)={step!r} within 1e-12 "
        f"in {elapsed * 1e6:.0f}us",
    )
    assert abs(diagonal - 0.5) <= 1e-12
    assert abs(step - 1.0) <= 1e-12
    assert elapsed < 1e-3


def test_criterion_02_price_ratio_is_exact(acceptance_log):
    """Default prices keep the LLM/SLM per-token ratio at exactly 13.75."""
    input_ratio = PRICING.llm_in / PRICING.slm_in
    output_ratio = PRICING.llm_out / PRICING.slm_out
    ok = input_ratio == 13.75 and output_ratio == 13.75
    acceptance_log(
        2,
        ok,
        f"input leg {input_ratio!r}, output leg {output_ratio!r}, both == 13.75",
    )
    assert input_ratio == 13.75
    assert output_ratio == 13.75


def test_criterion_03_cascade_cost_charges_input_once(acceptance_log):
    """A K=10 cascade bills the prompt once, all outputs, and the LLM term."""
    samples = sc_votes(["a"] * 5 + ["b"] * 5, tokens=[50] * 10)
    question = make_question(
        "kv", input_tokens=100, samples=samples, llm_tokens=300, llm_correct=True
    )
    profile = DatasetProfile.from_questions([question])

    # hand arithmetic, USD per question at the default prices
    slm_hand = (0.02 * 100 + 0.08 * 500) / 1e6
    llm_hand = (0.275 * 100 + 1.10 * 300) / 1e6
    naive_hand = (0.02 * 100 * 10 + 0.08 * 500) / 1e6  # the rule this forbids

    accepted = route_cascade(question, 0.4, profile, PRICING, scheme="sc")
    rejected = route_cascade(question, 0.9, profile, PRICING, scheme="sc")
    accepted_total = accepted.slm_cost + accepted.llm_cost
    rejected_total = rejected.slm_cost + rejected.llm_cost

    ok = (
        not accepted.routed
        and rejected.routed
        and abs(accepted_total - slm_hand) <= 1e-12 * slm_hand
        and abs(rejected_total - (slm_hand + llm_hand)) <= 1e-12 * (slm_hand + llm_hand)
        and abs(accepted_total - naive_hand) > 1e-7
    )
    acceptance_log(
        3,
        ok,
        f"accepted {accepted_total:.10e} vs hand {slm_hand:.10e}, "
        f"rejected {rejected_total:.10e} vs hand {slm_hand + llm_hand:.10e}, "
        "relative error <= 1e-12",
    )
    assert not accepted.routed and rejected.routed
    assert accepted_total == pytest.approx(slm_hand, rel=1e-12)
    assert rejected_total == pytest.approx(slm_hand + llm_hand, rel=1e-12)
    assert accepted_total != pytest.approx(naive_hand, rel=1e-3)


def _random_vote_samples(rng):
    k = rng.randint(1, 10)
    style = rng.choice(("sc", "rcv", "fcv", "mixed"))
    samples = []
    for _ in range(k):
        if style == "sc":
            level = None
        elif style == "fcv":
            level = 1.0
        elif style == "rcv":
            level = rng.choice(CONFIDENCE_LEVELS)
        else:
            level = rng.choice((None,) + CONFIDENCE_LEVELS)
        refusal = rng.random() < 0.25
        tokens = rng.randint(1, 400)
        if refusal:
            samples.append(
                SampleRecord(
                    answer=None,
                    correct=False,
                    tokens=tokens,
                    confidence_level=level,
                    refusal=True,
                )
            )
        else:
            answer = rng.choice("abcd")
            samples.append(
                SampleRecord(
                    answer=answer,
                    correct=answer == "a",
                    tokens=tokens,
                    confidence_level=level,
                )
            )
    return samples


def test_criterion_04_early_stop_is_an_oracle(acceptance_log):
    """The early-stop walk reproduces the full-tally decision exactly."""
    rng = random.Random(42424242)
    n_configs = 1200
    start = time.perf_counter()
    mismatches = 0
    latency_violations = 0
    for index in range(n_configs):
        samples = _random_vote_samples(rng)
        alpha = rng.uniform(0.0, 1.2)
        tau = rng.choice([rng.random(), rng.randint(0, 10) / 10])
        accepted, answer, share, latency, _ = simulate_parallel(samples, tau, alpha=alpha)
        if (accepted, answer, share) != reference_vote(samples, alpha, tau):
            mismatches += 1
        if latency > max(s.tokens for s in samples):
            latency_violations += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and latency_violations == 0 and elapsed < 5.0
    acceptance_log(
        4,
        ok,
        f"{n_configs} random vote configs: {mismatches} decision mismatches, "
        f"{latency_violations} latency bound violations in {elapsed:.2f}s",
    )
    assert mismatches == 0
    assert latency_violations == 0
    assert elapsed < 5.0


def _independent_majority(samples):
    """Reference majority vote, written apart from the cascade code."""
    counts = Counter(s.answer for s in samples if not s.refusal)
    if not counts:
        return None
    return min(counts.items(), key=lambda item: (-item[1], item[0]))[0]


def test_criterion_05_uniform_weights_reduce_to_majority(acceptance_log):
    """With flat weights the confidence vote is plain majority voting."""
    rng = random.Random(5050)
    n_tallies = 1000
    mismatches = 0
    for index in range(n_tallies):
        k = rng.randint(1, 10)
        flat_by_alpha = rng.random() < 0.5
        samples = []
        for _ in range(k):
            refusal = rng.random() < 0.2
            level = rng.choice(CONFIDENCE_LEVELS) if flat_by_alpha else None
            answer = None if refusal else rng.choice("abcd")
            samples.append(
                SampleRecord(
                    answer=answer,
                    correct=answer == "a",
                    tokens=rng.randint(1, 50),
                    confidence_level=level,
                    refusal=refusal,
                )
            )
        alpha = 0.0 if flat_by_alpha else rng.uniform(0.0, 1.0)
        _, voted, _, _, _ = simulate_parallel(samples, 0.0, alpha=alpha)
        if voted != _independent_majority(samples):
            mismatches += 1
    ok = mismatches == 0
    acceptance_log(
        5,
        ok,
        f"{n_tallies} flat-weight tallies match an independent majority vote "
        f"({mismatches} mismatches)",
    )
    assert mismatches == 0


def test_criterion_06_loss_identities(acceptance_log):
    """The preference loss sits at ln 2 on equal policies and has the
    analytic slope everywhere."""
    at_zero = combined_loss(-7.0, -7.0, -11.0, -11.0, chosen_token_count=30).dpo
    ln2_err = abs(at_zero - math.log(2.0))

    rng = random.Random(606)
    max_grad_err = 0.0
    h = 1e-5
    for index in range(20):
        beta = 1.0 if index < 14 else 3.0
        margin = rng.uniform(-6.0, 6.0)

        def dpo_at(g):
            return combined_loss(g, 0.0, 0.0, 0.0, chosen_token_count=1, beta=beta).dpo

        numeric = (dpo_at(margin + h) - dpo_at(margin - h)) / (2 * h)
        analytic = -beta / (1.0 + math.exp(beta * margin))
        max_grad_err = max(max_grad_err, abs(numeric - analytic))

    ok = ln2_err <= 1e-10 and max_grad_err <= 1e-6
    acceptance_log(
        6,
        ok,
        f"l_dpo(equal policies) off ln2 by {ln2_err:.2e} (<=1e-10), "
        f"max gradient error {max_grad_err:.2e} (<=1e-6) at 20 points",
    )
    assert ln2_err <= 1e-10
    assert max_grad_err <= 1e-6


def test_criterion_07_builder_properties(acceptance_log):
    """Pair mining and refusal corpora hold their contracts on 10^4
    random questions."""
    rng = random.Random(70707)
    n_questions = 10_000
    pair_count = 0
    violations = []
    for i in range(n_questions):
        p_correct = rng.random()
        samples = tuple(
            ResponseSample(
                text=f"resp-{i}-{j}",
                correct=rng.random() < p_correct,
                tokens=rng.randint(1, 300),
            )
            for j in range(10)
        )
        q = TrainingQuestion(id=f"q{i}", question=f"Question {i}?", samples=samples)

        pair = build_dpo_pair(q.id, q.samples)
        if pair is not None:
            pair_count += 1
            if not pair.rejected_tokens > 1.5 * pair.chosen_tokens:
                violations.append(f"{q.id}: ratio")
            if not any(
                s.correct and s.text == pair.chosen and s.tokens == pair.chosen_tokens
                for s in samples
            ):
                violations.append(f"{q.id}: chosen provenance")
            if not any(
                not s.correct
                and s.text == pair.rejected
                and s.tokens == pair.rejected_tokens
                for s in samples
            ):
                violations.append(f"{q.id}: rejected provenance")

        examples = build_refusal_examples(q, seed=1)
        accuracy = sum(s.correct for s in samples) / 10
        correct_texts = {s.text for s in samples if s.correct}
        if len(examples) != 10:
            violations.append(f"{q.id}: example count")
            continue
        for example, level in zip(examples, CONFIDENCE_LEVELS):
            expected_prompt = (
                f"Please respond with a confidence level of {level:.1f}: {q.question}"
            )
            if example.threshold != level or example.prompt != expected_prompt:
                violations.append(f"{q.id}: prompt template")
            if accuracy >= level:
                if example.target not in correct_texts:
                    violations.append(f"{q.id}: target at {level}")
            elif example.target != REJECTION_TEXT:
                violations.append(f"{q.id}: rejection at {level}")

    ok = not violations and pair_count > 0
    acceptance_log(
        7,
        ok,
        f"{n_questions} random questions: {pair_count} pairs all strictly 1.5x, "
        f"refusal sets bit-exact ({len(violations)} violations)",
    )
    assert not violations, violations[:5]
    assert pair_count > 0


def test_criterion_08_threshold_monotonicity(acceptance_log):
    """Routed counts, spend, and assume-perfect quality all grow with tau."""
    questions = generate_synthetic(1000, seed=42, params=SyntheticParams(scheme="rcv"))
    profile = DatasetProfile.from_questions(questions)

    start = time.perf_counter()
    sweeps = {
        ("pre", "actual"): sweep_pre(questions, profile, PRICING),
        ("pre", "perfect"): sweep_pre(questions, profile, PRICING, assume_perfect=True),
        ("cascade", "actual"): sweep_cascade(questions, profile, PRICING, scheme="rcv"),
        ("cascade", "perfect"): sweep_cascade(
            questions, profile, PRICING, scheme="rcv", assume_perfect=True
        ),
    }
    elapsed = time.perf_counter() - start

    failures = []
    for (policy, mode), sweep in sweeps.items():
        grid = sweep.points[1:-1]
        counts = [p.n_routed for p in grid]
        costs = [p.cost for p in grid]
        if counts != sorted(counts):
            failures.append(f"{policy} routed counts not monotone")
        if costs != sorted(costs):
            failures.append(f"{policy} costs not monotone")
        if mode == "perfect":
            perfs = [p.performance for p in grid]
            if perfs != sorted(perfs):
                failures.append(f"{policy} perfect performance not monotone")

    ok = not failures and elapsed < 10.0
    acceptance_log(
        8,
        ok,
        "seed-42 n=1000: pre and cascade counts, costs, and assume-perfect "
        f"performance all nondecreasing across the default grid in {elapsed:.2f}s",
    )
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_09_golden_curve_dominates(acceptance_log):
    """No threshold router beats hindsight routing on uniform-cost data."""
    rng = random.Random(909090)
    datasets = 100
    dominance_failures = 0
    togr_golden_err = 0.0
    togr_diag_err = 0.0
    for _ in range(datasets):
        n = rng.randint(2, 50)
        counts = [rng.randint(0, 10) for _ in range(n)]
        # ToGR needs a golden reference with gain: all-equal accuracies
        # collapse the golden curve onto the diagonal and leave it undefined
        if len(set(counts)) == 1:
            counts[0] = (counts[0] + 3) % 10
        questions = [
            uniform_cost_question(f"q{j:03d}", count, rng)
            for j, count in enumerate(counts)
        ]
        profile = DatasetProfile.from_questions(questions)

        golden = golden_curve(questions, profile, PRICING)
        golden_area = toa_from_points(golden)

        scores = [q.pre_score for q in questions]
        taus = {0.0, 1.0}
        for score in scores:
            taus.add(score)
            taus.add(math.nextafter(score, 2.0))
        sweep = sweep_pre(
            questions,
            profile,
            PRICING,
            taus=sorted(t for t in taus if t <= 1.0),
            assume_perfect=True,
        )
        if toa_from_points(sweep.points) > golden_area + 1e-9:
            dominance_failures += 1
        slm_point, llm_point = sweep.points[0], sweep.points[-1]
        for point in sweep.points[1:-1]:
            single = [slm_point, point, llm_point]
            if toa_from_points(single) > golden_area + 1e-9:
                dominance_failures += 1
                break

        togr_golden_err = max(togr_golden_err, abs(togr(golden, golden) - 1.0))
        diagonal = [golden[0], golden[-1]]
        togr_diag_err = max(togr_diag_err, abs(togr(diagonal, golden)))

    ok = (
        dominance_failures == 0
        and togr_golden_err <= 1e-9
        and togr_diag_err <= 1e-9
    )
    acceptance_log(
        9,
        ok,
        f"{datasets} uniform-cost datasets: {dominance_failures} dominance "
        f"failures, togr(golden) off by {togr_golden_err:.1e}, "
        f"togr(diagonal) off by {togr_diag_err:.1e} (<=1e-9)",
    )
    assert dominance_failures == 0
    assert togr_golden_err <= 1e-9
    assert togr_diag_err <= 1e-9


def test_criterion_10_end_to_end_sanity(acceptance_log):
    """Refusal-aware routing beats a noisy score, and refusal-led cascades
    reject in a fraction of the self-consistency latency."""
    start = time.perf_counter()

    noisy = SyntheticParams(scheme="rcv", pre_score_noise=0.35)
    questions = generate_synthetic(600, seed=20240819, params=noisy)
    profile = DatasetProfile.from_questions(questions)
    golden = golden_curve(questions, profile, PRICING)
    refusal_sweep = sweep_pre(
        questions, profile, PRICING, score_source="refusal", assume_perfect=True
    )
    noisy_sweep = sweep_pre(
        questions, profile, PRICING, score_source="pre", assume_perfect=True
    )
    refusal_togr = togr(refusal_sweep.points, golden)
    noisy_togr = togr(noisy_sweep.points, golden)

    fcv_questions = generate_synthetic(
        400, seed=777, params=SyntheticParams(scheme="fcv", easy_fraction=0.25)
    )
    fcv_profile = DatasetProfile.from_questions(fcv_questions)
    fcv_sweep = sweep_cascade(
        fcv_questions, fcv_profile, PRICING, scheme="fcv", taus=[0.6]
    )
    fcv_arol = latency_report(fcv_sweep.outcomes_by_tau[0.6]).arol

    sc_questions = generate_synthetic(
        400, seed=777, params=SyntheticParams(scheme="sc", easy_fraction=0.25)
    )
    sc_profile = DatasetProfile.from_questions(sc_questions)
    sc_sweep = sweep_cascade(
        sc_questions, sc_profile, PRICING, scheme="sc", taus=[0.6]
    )
    sc_arol = latency_report(sc_sweep.outcomes_by_tau[0.6]).arol

    fcv_rejected = sum(1 for o in fcv_sweep.outcomes_by_tau[0.6] if o.routed)
    sc_rejected = sum(1 for o in sc_sweep.outcomes_by_tau[0.6] if o.routed)
    elapsed = time.perf_counter() - start

    ok = (
        refusal_togr > noisy_togr
        and fcv_rejected > 0
        and sc_rejected > 0
        and fcv_arol < 0.2 * sc_arol
        and elapsed < 30.0
    )
    acceptance_log(
        10,
        ok,
        f"refusal ToGR {refusal_togr:.4f} > noisy ToGR {noisy_togr:.4f}; "
        f"FCV AROL {fcv_arol:.1f} < 20% of SC AROL {sc_arol:.1f} "
        f"in {elapsed:.2f}s",
    )
    assert refusal_togr > noisy_togr
    assert fcv_rejected > 0 and sc_rejected > 0
    assert fcv_arol < 0.2 * sc_arol
    assert elapsed < 30.0
