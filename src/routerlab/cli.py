"""Command-line interface.

Subcommands: validate, sweep, build, synth, metrics. Exit codes: 0 on
success, 1 when data fails validation or a computation is undefined,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
from typing import Sequence

from . import __version__
from .cascade import DEFAULT_ALPHA, DEFAULT_K, DEFAULT_LATENCY_TAU, sweep_cascade
from .io import (
    SyntheticParams,
    _write_pair_rows,
    _write_refusal_rows,
    generate_synthetic,
    load_dataset,
    load_pricing,
    load_training_questions,
    read_curve,
    scan_dataset,
    write_curve,
    write_dataset,
    write_metrics,
)
from .metrics import golden_curve, toa_from_points, togr
from .prerouting import SCORE_SOURCES, sweep_pre
from .records import (
    CONFIDENCE_LEVELS,
    DEFAULT_TAUS,
    REJECTED_TOKEN_RATIO,
    SCHEMES,
    MetricsReport,
    PricingSchedule,
    ValidationError,
    _GRID_TOLERANCE,
)
from .trainset import ESTIMATE_SAMPLES, _check_min_ratio, _dpo_pair, refusal_targets


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routerlab",
        description="Replay-driven simulation and evaluation of SLM-to-LLM routing policies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dataset file and report problems")
    p.add_argument("dataset", help="questions JSONL file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("sweep", help="evaluate a routing policy across thresholds")
    p.add_argument("dataset", help="questions JSONL file")
    p.add_argument("--mode", required=True, choices=("pre", "cascade"), help="routing policy")
    p.add_argument("--out-dir", required=True, help="directory for curve.csv and metrics.json")
    p.add_argument(
        "--score-source",
        choices=SCORE_SOURCES,
        default="pre",
        help="pre-routing score: stored pre_score or the derived refusal score (default: pre)",
    )
    p.add_argument(
        "--taus",
        type=_taus_arg,
        default=DEFAULT_TAUS,
        metavar="START:END:STEP",
        help="threshold grid; END is included only when a whole number of steps reaches it (default: 0:1:0.1)",
    )
    p.add_argument("--scheme", choices=SCHEMES, default="rcv", help="cascade sampling scheme (default: rcv)")
    p.add_argument("--k", type=_positive_int, default=DEFAULT_K, help="cascade samples per question (default: 10)")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="confidence weight spread (default: 0.5)")
    p.add_argument(
        "--tau",
        type=float,
        default=DEFAULT_LATENCY_TAU,
        help="grid threshold whose cascade latencies fill agl/arol (default: 0.6)",
    )
    p.add_argument(
        "--assume-perfect",
        action="store_true",
        help="score every escalated question 1.0 instead of the recorded LLM result",
    )
    p.add_argument(
        "--golden",
        action="store_true",
        help="also write the hindsight-optimal reference curve and report ToGR",
    )
    p.add_argument("--pricing", help="pricing JSON file (default: built-in prices)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("build", help="build preference pairs and refusal examples from a corpus")
    p.add_argument("corpus", help="training corpus JSONL file")
    p.add_argument("--out-dir", required=True, help="directory for pairs.jsonl and refusal.jsonl")
    p.add_argument("--seed", type=int, default=None, help="target sampling seed (default: RL_SEED or 0)")
    p.add_argument(
        "--min-ratio",
        type=float,
        default=REJECTED_TOKEN_RATIO,
        help=f"required rejected/chosen token ratio, at least {REJECTED_TOKEN_RATIO} "
        f"(default: {REJECTED_TOKEN_RATIO})",
    )
    p.add_argument(
        "--include-correct-rejected",
        action="store_true",
        help="let long correct completions be rejected (default: incorrect only)",
    )
    p.set_defaults(handler=_cmd_build)

    # Each knob's dest is its SyntheticParams field, which _cmd_synth reads by name.
    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("out", help="output questions JSONL file")
    p.add_argument("--n", type=_positive_int, required=True, help="number of questions")
    p.add_argument("--seed", type=int, default=None, help="generator seed (default: RL_SEED or 0)")
    p.add_argument("--scheme", choices=SCHEMES, default="rcv", help="sample scheme to generate (default: rcv)")
    p.add_argument("--n-samples", type=_positive_int, default=10, help="samples per question (default: 10)")
    p.add_argument("--difficulty-min", type=float, default=0.0)
    p.add_argument("--difficulty-max", type=float, default=1.0)
    p.add_argument(
        "--easy-fraction",
        type=float,
        default=0.0,
        help="fraction of questions pinned to difficulty 0 (default: 0)",
    )
    p.add_argument(
        "--pre-noise",
        dest="pre_score_noise",
        metavar="PRE_NOISE",
        type=float,
        default=0.0,
        help="uniform noise scale on stored pre-generation scores (default: 0)",
    )
    p.add_argument("--llm-correct-prob", type=float, default=0.9)
    p.add_argument(
        "--no-llm", dest="include_llm", action="store_false",
        help="omit LLM records; validate accepts the file, every sweep rejects it",
    )
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("metrics", help="recompute metrics from curve CSV files")
    p.add_argument("curve", help="curve CSV written by sweep")
    p.add_argument("--golden", help="golden curve CSV; enables ToGR of an assume-perfect curve, so needs --mode perfect")
    p.add_argument(
        "--mode",
        choices=("actual", "perfect"),
        default="actual",
        help="how the curve was produced; perfect also fills toa100 (default: actual)",
    )
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=_cmd_metrics, usage_error=p.error)

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _taus_arg(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected START:END:STEP, e.g. 0:1:0.1")
    try:
        start, end, step = (float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three numbers, got {text!r}")
    if not (math.isfinite(step) and step > 0):
        raise argparse.ArgumentTypeError("step must be positive")
    if not 0.0 <= start <= end <= 1.0:
        raise argparse.ArgumentTypeError("thresholds must satisfy 0 <= start <= end <= 1")
    steps = (end - start) / step + _GRID_TOLERANCE  # a float: a tiny step gives inf, not an OverflowError
    if steps >= 1_000_001:  # a 1e-6 step over [0, 1] is the finest grid
        size = steps if math.isinf(steps) else math.floor(steps) + 1
        raise argparse.ArgumentTypeError(f"the grid would hold {size:.7g} thresholds; at most 1000001 are allowed")
    count = math.floor(steps)
    # Rounding keeps grids like 0:1:0.1 on the same floats as literals.
    return tuple(round(start + k * step, 9) for k in range(count + 1))


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("RL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"RL_SEED must be an integer, got {env!r}")


def _cmd_validate(args) -> int:
    count, problems = scan_dataset(args.dataset)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{args.dataset}: {count} question(s) ok, {len(problems)} problem(s)")
        return 1
    print(f"{args.dataset}: {count} question(s) ok")
    return 0


def _cmd_sweep(args) -> int:
    latency_tau = _grid_tau(args.taus, args.tau) if args.mode == "cascade" else None
    questions, profile = load_dataset(args.dataset)
    pricing = load_pricing(args.pricing) if args.pricing else PricingSchedule()

    if args.mode == "pre":
        result = sweep_pre(
            questions, profile, pricing, args.taus, args.score_source, args.assume_perfect,
        )
    else:
        result = sweep_cascade(
            questions, profile, pricing, args.taus, args.scheme, args.k, args.alpha,
            assume_perfect=args.assume_perfect, latency_tau=latency_tau,
        )
    golden_points = golden_curve(questions, profile, pricing) if args.golden else None
    report, artifacts = _sweep_artifacts(result, golden_points, args.assume_perfect)
    _write_artifacts(args.out_dir, artifacts)
    curve_path = os.path.join(args.out_dir, "curve.csv")
    metrics_path = os.path.join(args.out_dir, "metrics.json")

    print(
        f"swept {len(questions)} questions, mode={args.mode}, "
        f"{len(result.points)} curve rows"
    )
    print(f"wrote {curve_path} and {metrics_path}")
    summary = f"toa={report.toa:.4f} toga={report.toga:.4f}"
    if report.togr is not None:
        summary += f" togr={report.togr:.4f}"
    if args.mode == "cascade":
        summary += f" agl={report.agl:.1f} arol={report.arol:.1f} (tau={args.tau:g})"
    print(summary)
    return 0


def _sweep_artifacts(result, golden_points, assume_perfect: bool) -> tuple[MetricsReport, dict]:
    """A sweep's metrics, and the files ``sweep`` writes for it as
    ``_write_artifacts`` takes them: ``curve.csv`` and ``metrics.json``,
    and with ``golden_points`` also ``golden.csv`` and, unless
    ``assume_perfect``, ``curve_perfect.csv``."""
    curves = {"curve.csv": result.points}
    toa_value = toa_from_points(result.points)
    toa100_value = toa_value if assume_perfect else None
    togr_value = None
    if golden_points is not None:
        curves["golden.csv"] = golden_points
        if not assume_perfect:
            curves["curve_perfect.csv"] = result.perfect_points
            toa100_value = toa_from_points(result.perfect_points)
        togr_value = togr(result.perfect_points, golden_points)
    latency = result.latency
    report = MetricsReport(
        toa=toa_value,
        agl=latency.agl if latency else 0.0,
        arol=latency.arol if latency else 0.0,
        mode="perfect" if assume_perfect else "actual",
        toa100=toa100_value,
        togr=togr_value,
    )
    artifacts = {name: (write_curve, points) for name, points in curves.items()}
    artifacts["metrics.json"] = (write_metrics, report)
    return report, artifacts


def _write_artifacts(out_dir: str, artifacts: dict) -> None:
    """Write every artifact into ``out_dir``, or none of them.

    ``artifacts`` maps a file name to ``(write, content)``. Each is written
    to a temporary name in ``out_dir`` with ``write(content, path)``; all
    are renamed into place once every write has succeeded, and removed if
    one fails. A target that is a directory fails before any write.
    """
    os.makedirs(out_dir, exist_ok=True)
    for path in (os.path.join(out_dir, name) for name in artifacts):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    renames = []
    try:
        for name, (write, content) in artifacts.items():
            temporary = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
            renames.append((temporary, os.path.join(out_dir, name)))
            write(content, temporary)
        for temporary, path in renames:
            os.replace(temporary, path)
    except BaseException:
        for temporary, _ in renames:
            with contextlib.suppress(OSError):
                os.remove(temporary)
        raise


def _grid_tau(taus, requested: float) -> float:
    for tau in taus:
        if abs(tau - requested) <= _GRID_TOLERANCE:
            return tau
    grid = ", ".join(f"{t:g}" for t in sorted(taus))
    raise ValidationError(
        f"--tau {requested:g} is not on the sweep grid ({grid}); "
        "pick a grid threshold for the latency report"
    )


def _cmd_build(args) -> int:
    corpus = load_training_questions(args.corpus)
    seed = _resolve_seed(args.seed)
    short = [q.id for q in corpus if len(q.texts) != ESTIMATE_SAMPLES]
    if short:
        shown = ", ".join(repr(qid) for qid in short[:5])
        raise ValidationError(
            f"{len(short)} question(s) do not have exactly {ESTIMATE_SAMPLES} samples "
            f"(first: {shown}); the corpus cannot be built"
        )
    _check_min_ratio(args.min_ratio)
    pairs = []
    for question in corpus:
        pair = _dpo_pair(
            question.id, question.texts, question.correct, question.tokens,
            args.min_ratio, args.include_correct_rejected,
        )
        if pair is not None:
            pairs.append(pair)
    # Each question's refusal rows are written as its targets are drawn.
    refusals = ((question, refusal_targets(question, seed)) for question in corpus)
    _write_artifacts(
        args.out_dir,
        {"pairs.jsonl": (_write_pair_rows, pairs), "refusal.jsonl": (_write_refusal_rows, refusals)},
    )
    pairs_path = os.path.join(args.out_dir, "pairs.jsonl")
    refusal_path = os.path.join(args.out_dir, "refusal.jsonl")
    print(
        f"built {len(pairs)} preference pair(s) from {len(corpus)} question(s) "
        f"({len(corpus) - len(pairs)} without a qualifying pair)"
    )
    print(f"built {len(CONFIDENCE_LEVELS) * len(corpus)} refusal example(s), seed={seed}")
    print(f"wrote {pairs_path} and {refusal_path}")
    return 0


def _cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    params = SyntheticParams(**{name: getattr(args, name) for name in SyntheticParams._fields})
    questions = generate_synthetic(args.n, seed, params)
    directory, name = os.path.split(args.out)
    _write_artifacts(directory or os.curdir, {name: (write_dataset, questions)})
    print(f"wrote {len(questions)} question(s) to {args.out} (scheme={args.scheme}, seed={seed})")
    return 0


def _cmd_metrics(args) -> int:
    if args.golden and args.mode != "perfect":  # ToGR is defined on the assume-perfect curve
        args.usage_error("--golden needs --mode perfect and an assume-perfect curve, such as sweep's curve_perfect.csv")
    points, toa_value = _curve_toa(args.curve)
    togr_value = None
    if args.golden:
        togr_value = togr(points, _curve_toa(args.golden)[0])
    report = MetricsReport(
        toa=toa_value,
        agl=0.0,  # curves carry no latency information
        arol=0.0,
        mode=args.mode,
        toa100=toa_value if args.mode == "perfect" else None,
        togr=togr_value,
    )
    if args.out:
        directory, name = os.path.split(args.out)
        _write_artifacts(directory or os.curdir, {name: (write_metrics, report)})
        print(f"wrote {args.out}")
    else:
        print(json.dumps(report.to_dict(), indent=2))
    return 0


def _curve_toa(path: str) -> tuple:
    """A curve file's points and ToA; an error about its shape names the file."""
    points = read_curve(path)
    try:
        return points, toa_from_points(points)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())
