"""Replay-driven simulation of SLM-to-LLM routing policies.

Load a dataset of recorded model behaviour, replay it through a
pre-generation or cascade routing policy across a threshold grid, and
score the resulting cost/performance trade-off; plus builders for the
preference-pair and refusal training sets distilled from such records.
"""

__version__ = "0.1.0"

from .cascade import (
    route_cascade,
    select_samples,
    simulate_parallel,
    sweep_cascade,
    vote_weight,
)
from .costs import (
    average_quality,
    llm_question_cost,
    normalized_cascade_cost,
    normalized_pre_cost,
    slm_question_cost,
    total_llm_cost,
)
from .io import (
    SyntheticParams,
    generate_synthetic,
    load_dataset,
    load_pricing,
    load_training_questions,
    read_curve,
    write_curve,
    write_dataset,
    write_metrics,
    write_pairs,
    write_refusal_examples,
)
from .metrics import (
    LatencyReport,
    golden_curve,
    latency_report,
    toa,
    toa_from_points,
    toga,
    togr,
)
from .prerouting import (
    derive_refusal_score,
    majority_answer,
    question_score,
    route_pre,
    sweep_pre,
)
from .records import (
    CONFIDENCE_LEVELS,
    DEFAULT_TAUS,
    REJECTION_TEXT,
    CurvePoint,
    DatasetProfile,
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
    refusal_prompt,
)
from .trainset import (
    LossTerms,
    ResponseSample,
    TrainingQuestion,
    build_dpo_pair,
    build_refusal_examples,
    combined_loss,
    estimate_accuracy,
    training_config,
)
