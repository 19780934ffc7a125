"""Command line interface.

Subcommands mirror the pipeline stages so each step can run and be
inspected on its own:

* ingest          validate corpus files and print triple counts
* fit-topics      fit and save per-debate-topic models
* inspect-topics  print the top words of a saved model
* crossval        nuisance diagnostics without estimation
* estimate        the full pipeline, writing report files
* simulate        generate a synthetic corpus with known effects
* report          re-render a structured report file

Exit codes: 0 success, 1 invalid configuration or input, 2 runtime
failure, 3 completed with requested estimate cells missing.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from ..corpus import (
    CorpusError,
    extract_triples,
    load_annotations,
    load_posts,
)
from ..estimators import EstimationError
from ..inference import InferenceError
from ..lexicon import LexiconError
from ..topics import TopicModelError, load_model, top_words
from .config import ConfigError, PipelineConfig, config_from_dict, load_config
from .pipeline import PipelineError, fit_topic_models, run_pipeline, token_table
from .report import ReportError, parse_report, render_report, triple_summary
from .synthetic import CorpusWorld, SyntheticError, generate_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_INCOMPLETE = 3


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--posts", dest="posts_path", help="posts JSONL file")
    parser.add_argument(
        "--annotations", dest="annotations_path", help="annotations JSONL file"
    )
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument(
        "--seed", type=int, help="run seed (required here or in the config file)"
    )
    parser.add_argument("--lexicon", dest="lexicon_path", help="lexicon file")
    parser.add_argument("--grouping", dest="grouping_path", help="category grouping file")
    parser.add_argument(
        "--reply-types",
        dest="reply_types",
        help="comma separated reply types (default: all)",
    )
    parser.add_argument(
        "--category-types",
        dest="category_types",
        help="comma separated category types (default: all)",
    )
    parser.add_argument(
        "--variants",
        dest="confounder_variants",
        help="comma separated confounder variants (default: both)",
    )
    parser.add_argument(
        "--estimators", dest="estimators", help="comma separated estimators (default: all)"
    )
    parser.add_argument("--aipw-variant", dest="aipw_variant", help="plain or stabilized")
    parser.add_argument("--k", type=int, help="number of topics per debate topic")
    parser.add_argument("--min-df", dest="min_df", type=float, help="vocabulary lower bound")
    parser.add_argument("--max-df", dest="max_df", type=float, help="vocabulary upper bound")
    parser.add_argument("--folds", type=int, help="cross-validation folds")
    parser.add_argument(
        "--cv-category-type", dest="cv_category_type", help="outcome used for crossval"
    )
    parser.add_argument(
        "--regularization", type=float, help="propensity L2 penalty"
    )
    parser.add_argument("--ridge", dest="outcome_ridge", type=float, help="outcome ridge")
    parser.add_argument(
        "--clip-epsilon", dest="clip_epsilon", type=float, help="propensity clipping"
    )
    parser.add_argument(
        "--bootstrap-replicates",
        dest="bootstrap_replicates",
        type=int,
        help="bootstrap replicates (0 disables standard errors)",
    )
    parser.add_argument(
        "--no-refit",
        dest="bootstrap_refit",
        action="store_const",
        const=False,
        default=None,
        help="reuse nuisance values across bootstrap replicates",
    )
    parser.add_argument("--jobs", type=int, help="worker processes for estimate cells")
    parser.add_argument(
        "--no-cache",
        dest="use_cache",
        action="store_const",
        const=False,
        default=None,
        help="ignore and skip the topic model cache",
    )


_LIST_FIELDS = ("reply_types", "category_types", "confounder_variants", "estimators")


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    overrides = {}
    for key, value in vars(args).items():
        if key in ("command", "config", "func", "format", "model", "topic", "verbose"):
            continue
        if value is None:
            continue
        if key in _LIST_FIELDS and isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        overrides[key] = value
    if args.config:
        return load_config(args.config, overrides)
    return config_from_dict(overrides)


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = _build_config(args)
    posts = load_posts(config.posts_path)
    annotations = load_annotations(config.annotations_path)
    print(f"posts: {len(posts)} across {len(posts.discussion_ids)} discussions")
    print(f"debate topics: {', '.join(posts.debate_topics)}")
    print(f"annotations: {len(annotations)}")
    # the loaders log every skipped record and parent-link warning
    for reply_type in config.reply_types:
        counts = triple_summary(extract_triples(posts, annotations, reply_type))
        print(
            f"triples[{reply_type.value}]: {counts['total']} "
            f"(treated {counts['treated']}, control {counts['control']})"
        )
    return EXIT_OK


def _cmd_fit_topics(args: argparse.Namespace) -> int:
    config = _build_config(args)
    posts = load_posts(config.posts_path)
    warnings: list[str] = []
    models = fit_topic_models(config, posts, token_table(posts), warnings)
    for warning in warnings:
        print(warning, file=sys.stderr)
    for debate_topic, model in sorted(models.items()):
        print(
            f"{debate_topic}: k={model.k}, vocabulary={len(model.vocabulary)}, "
            f"sweeps={len(model.elbo_trace)}, final bound={model.elbo_trace[-1]:.2f}"
        )
    print(f"models written under {Path(config.out_dir) / 'models'}")
    return EXIT_OK


def _cmd_inspect_topics(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    for i in range(model.k):
        words = top_words(model, i, args.words)
        print(f"topic {i}: {' '.join(words)}")
    return EXIT_OK


def _cmd_crossval(args: argparse.Namespace) -> int:
    config = _build_config(args)
    report = run_pipeline(config, run_estimates=False)
    for cv in report.cv_reports:
        print(
            f"({cv.reply_type}, {cv.variant}) folds={cv.fold_count} "
            f"f1={cv.mean_f1:.3f} rmse_q0={cv.mean_rmse_q0:.4f} "
            f"rmse_q1={cv.mean_rmse_q1:.4f}"
        )
        for skipped in cv.skipped_folds:
            print(f"  {skipped}", file=sys.stderr)
    return EXIT_OK


class _HeldRecords(logging.Handler):
    """Keeps the warnings of the logger it is attached to instead of printing them."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    # the report's warnings block lists every warning the corpus loaders
    # log, so without --verbose they are printed there only; a run that
    # fails prints no report, and then they go to stderr after all
    corpus_logger = logging.getLogger("tonefx.corpus")
    held = _HeldRecords()
    if not args.verbose:
        corpus_logger.addHandler(held)
        corpus_logger.propagate = False
    try:
        report = run_pipeline(config)
    except BaseException:
        for record in held.records:
            print(record.getMessage(), file=sys.stderr)
        raise
    finally:
        corpus_logger.removeHandler(held)
        corpus_logger.propagate = True
    print(render_report(report, "table"), end="")
    print(f"\nreport files written under {config.out_dir}")
    if report.failed_cells:
        print(
            f"{len(report.failed_cells)} requested cells failed: "
            + ", ".join(report.failed_cells),
            file=sys.stderr,
        )
        return EXIT_INCOMPLETE
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    world = CorpusWorld(
        effect=args.effect,
        confounded_drift=args.drift,
        stance_to_treatment=args.confounding,
    )
    truth = generate_corpus(world, args.triples, seed=args.seed, out_dir=args.out_dir)
    print(f"synthetic corpus written under {args.out_dir}")
    print(f"triples: {truth.n_triples} (treated {truth.n_treated})")
    for category, value in truth.true_ate.items():
        print(f"true effect [{category}]: {value:+.4f}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    text = Path(args.report).read_text(encoding="utf-8")
    report = parse_report(text)
    print(render_report(report, args.format), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonefx",
        description="Estimate tone reply effects in threaded debate corpora.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, doc in (
        ("ingest", _cmd_ingest, "validate corpus files and count triples"),
        ("fit-topics", _cmd_fit_topics, "fit per-debate-topic models"),
        ("crossval", _cmd_crossval, "cross-validated nuisance diagnostics"),
        ("estimate", _cmd_estimate, "full pipeline with report files"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_config_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("inspect-topics", help="print top words of a saved model")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--words", type=int, default=10, help="words per topic")
    p.set_defaults(func=_cmd_inspect_topics)

    p = sub.add_parser("simulate", help="generate a synthetic corpus with known effects")
    p.add_argument("--triples", type=int, default=300, help="number of triples")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--effect", type=float, default=CorpusWorld.effect)
    p.add_argument("--drift", type=float, default=CorpusWorld.confounded_drift)
    p.add_argument(
        "--confounding", type=float, default=CorpusWorld.stance_to_treatment
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="re-render a structured report file")
    p.add_argument("report", help="report.json produced by estimate")
    p.add_argument(
        "--format",
        choices=("structured", "table", "delimited"),
        default="table",
        help="output format",
    )
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    try:
        return args.func(args)
    except (ConfigError, CorpusError, LexiconError, ReportError, SyntheticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PipelineError, TopicModelError, InferenceError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a missing input file is the caller's mistake, not a runtime failure
        if isinstance(exc.__cause__, FileNotFoundError):
            return EXIT_USAGE
        return EXIT_RUNTIME
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
