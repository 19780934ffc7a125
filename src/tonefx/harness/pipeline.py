"""End-to-end pipeline: corpus files in, run report out.

Stages run in a fixed order: load, triples, topics, outcomes,
confounders, crossval, estimates, report.  Any failure is wrapped in a
PipelineError naming the stage.  Failures local to one analysis cell
(one reply type, category type and confounder variant) do not abort the
run; the cell is dropped with a warning and the caller can detect the
gap by comparing against the requested grid.

Topic models are cached under out_dir/cache keyed by a digest of the
per-topic corpus content, the tokenizer fingerprint and every fitting
parameter, so reruns over unchanged inputs skip straight to inference.
The fitted models are also published under out_dir/models for
inspection regardless of cache hits: each is serialized once, into the
cache, and its bytes are copied to out_dir/models (with the cache off,
it is serialized into out_dir/models directly).

Each post's default-tokenizer tokens and its category row are computed
at most once per run, on first use, and shared by the topics, outcomes
and confounders stages; with cached topic models, posts outside the
triples are never tokenized.  The tokenizer and the run's lexicon also
memoize each distinct token form, so a form is lemmatized once per
tokenizer and categorized once per run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..corpus import (
    CorpusError,
    PostCollection,
    Triple,
    extract_triples,
    load_annotations,
    load_posts,
)
from ..estimators import (
    AteEstimate,
    EstimationError,
    build_estimation_input,
    estimate_all,
)
from ..inference import (
    InferenceError,
    build_confounder_matrix,
    cross_validate,
)
from ..lexicon import (
    LexiconError,
    compute_outcome,
    load_lexicon,
    vectorize_post,
)
from ..topics import (
    LdaModel,
    TopicModelError,
    build_dtm,
    build_vocabulary,
    default_tokenizer,
    fit_lda,
    load_model,
    save_model,
    top_words,
)
from .config import PipelineConfig
from .report import RunReport, render_report, triple_summary

logger = logging.getLogger(__name__)

MODEL_CACHE_VERSION = "1"


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


def _slug(text: str) -> str:
    cleaned = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return cleaned or "topic"


def _topic_cache_key(
    config: PipelineConfig, posts: Sequence, tokenizer_fingerprint: str
) -> str:
    payload = {
        "cache_version": MODEL_CACHE_VERSION,
        "posts": [(p.id, p.text) for p in sorted(posts, key=lambda p: p.id)],
        "tokenizer": tokenizer_fingerprint,
        "k": config.k,
        "min_df": config.min_df,
        "max_df": config.max_df,
        "max_iters": config.lda_max_iters,
        "tol": config.lda_tol,
        "seed": config.seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class PostFeatures(dict):
    """Per-post values keyed by post id, each computed from the post text on first lookup."""

    def __init__(self, posts: PostCollection, featurize: Callable[[str], object]):
        super().__init__()
        self._posts = posts
        self._featurize = featurize

    def __missing__(self, post_id: str):
        value = self[post_id] = self._featurize(self._posts.get(post_id).text)
        return value


def token_table(posts: PostCollection) -> PostFeatures:
    """Default-tokenizer tokens of each post, tokenized on first lookup.

    The tokenizer memoizes each raw form, so all lists share one string
    per raw form.
    """
    return PostFeatures(posts, default_tokenizer())


def fit_topic_models(
    config: PipelineConfig,
    posts: PostCollection,
    post_tokens: Mapping[str, Sequence[str]],
    warnings: list[str],
) -> dict[str, LdaModel]:
    """Fit or load from cache one topic model per debate topic.

    ``post_tokens`` holds each post's default-tokenizer tokens; only a
    cache miss reads it.  Every model is also published under
    out_dir/models, as a copy of its cache entry when the cache is on;
    problems that do not stop the run (an unreadable cache entry) go to
    ``warnings``.
    """
    tokenizer = default_tokenizer()
    cache_dir = Path(config.out_dir) / "cache"
    models_dir = Path(config.out_dir) / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    models: dict[str, LdaModel] = {}
    for debate_topic in posts.debate_topics:
        subset = [p for p in posts if p.debate_topic == debate_topic]
        key = _topic_cache_key(config, subset, tokenizer.fingerprint())
        cache_path = cache_dir / f"lda-{_slug(debate_topic)}-{key[:16]}.json"
        model_path = models_dir / f"{_slug(debate_topic)}.json"
        model: LdaModel | None = None
        if config.use_cache and cache_path.exists():
            try:
                model = load_model(cache_path)
                logger.info("topic model for %r loaded from cache", debate_topic)
            except (TopicModelError, OSError, ValueError, KeyError, TypeError) as exc:
                warnings.append(
                    f"cache entry for debate topic {debate_topic!r} unreadable "
                    f"({exc}); refitting"
                )
        if model is None:
            token_lists = [post_tokens[post.id] for post in subset]
            vocabulary = build_vocabulary(
                token_lists, min_df=config.min_df, max_df=config.max_df
            )
            dtm = build_dtm(token_lists, vocabulary)
            if dtm.zero_rows:
                logger.warning(
                    "%d of %d posts have no in-vocabulary tokens", len(dtm.zero_rows), dtm.n_docs
                )
            model = fit_lda(
                dtm,
                k=config.k,
                seed=config.seed,
                max_iters=config.lda_max_iters,
                tol=config.lda_tol,
            )
            save_model(model, cache_path if config.use_cache else model_path)
        if config.use_cache:
            shutil.copyfile(cache_path, model_path)
        models[debate_topic] = model
    return models


def _cell_seed(seed: int, reply_type: str, category_type: str, variant: str) -> int:
    blob = f"{seed}|{reply_type}|{category_type}|{variant}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


@dataclass(eq=False)
class _CellTask:
    """Everything one estimate cell needs, picklable for worker processes."""

    reply_type: str
    category_type: str
    variant: str
    features: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray
    estimators: tuple[str, ...]
    aipw_variant: str
    regularization: float
    ridge: float
    clip_epsilon: float
    bootstrap_replicates: int
    bootstrap_refit: bool
    seed: int


def _run_cell(task: _CellTask) -> tuple[list[AteEstimate], list[str]]:
    data = build_estimation_input(
        task.features,
        task.treatments,
        task.outcomes,
        regularization=task.regularization,
        ridge=task.ridge,
        clip_epsilon=task.clip_epsilon,
        seed=task.seed,
    )
    estimates = estimate_all(
        data,
        task.estimators,
        aipw_variant=task.aipw_variant,
        bootstrap_replicates=task.bootstrap_replicates,
        seed=task.seed,
        refit=task.bootstrap_refit,
        regularization=task.regularization,
        ridge=task.ridge,
        clip_epsilon=task.clip_epsilon,
        reply_type=task.reply_type,
        category_type=task.category_type,
        confounder_variant=task.variant,
    )
    # every estimator of a cell is scored from one bootstrap pass, so
    # they all skip the same replicates
    skipped = max((est.bootstrap_skipped for est in estimates), default=0)
    warnings = []
    if skipped:
        warnings.append(
            f"cell ({task.reply_type}, {task.category_type}, {task.variant}): "
            f"{skipped} of {task.bootstrap_replicates} bootstrap replicates skipped"
        )
    return estimates, warnings


def run_pipeline(config: PipelineConfig, run_estimates: bool = True) -> RunReport:
    """Run every stage and write report files under config.out_dir.

    ``run_estimates=False`` stops after cross-validation, for callers
    that only want nuisance diagnostics.
    """
    timings: dict[str, float] = {}
    warnings: list[str] = []
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def stage(name: str):
        timings[name] = time.perf_counter()
        return name

    def done(name: str) -> None:
        timings[name] = time.perf_counter() - timings[name]

    # load
    stage("load")
    try:
        posts = load_posts(config.posts_path)
        annotations = load_annotations(config.annotations_path)
        lexicon, grouping = load_lexicon(config.lexicon_path, config.grouping_path)
    except (CorpusError, LexiconError, OSError) as exc:
        raise PipelineError("load", str(exc)) from exc
    warnings += [f"posts: {e}" for e in posts.record_errors]
    warnings += [f"posts: {w}" for w in posts.warnings]
    warnings += [f"annotations: {e}" for e in annotations.record_errors]
    post_tokens = token_table(posts)
    category_rows = PostFeatures(posts, lambda text: vectorize_post(lexicon, grouping, text))
    done("load")

    # triples
    stage("triples")
    triples_by_reply: dict[str, list[Triple]] = {}
    for reply_type in config.reply_types:
        extracted = extract_triples(posts, annotations, reply_type)
        if extracted:
            triples_by_reply[reply_type.value] = list(extracted)
        else:
            warnings.append(
                f"no triples for reply type {reply_type.value!r}; its cells are skipped"
            )
    if not triples_by_reply:
        raise PipelineError("triples", "no reply type yielded any triples")
    done("triples")

    # topics
    stage("topics")
    try:
        models = fit_topic_models(config, posts, post_tokens, warnings)
    except TopicModelError as exc:
        raise PipelineError("topics", str(exc)) from exc
    done("topics")

    # outcomes
    stage("outcomes")
    outcomes: dict[tuple[str, str], np.ndarray] = {}
    # the crossval stage scores its configured category even when the
    # estimate grid does not include it
    category_types = list(config.category_types)
    if config.cv_category_type not in category_types:
        category_types.append(config.cv_category_type)
    for reply_value, triples in triples_by_reply.items():
        p1_rows = np.array([category_rows[triple.p1.id] for triple in triples])
        p3_rows = np.array([category_rows[triple.p3.id] for triple in triples])
        for category_type in category_types:
            columns = grouping.columns(category_type)
            outcomes[(reply_value, category_type.value)] = compute_outcome(
                p1_rows[:, columns], p3_rows[:, columns]
            )
    done("outcomes")

    # confounders
    stage("confounders")
    confounders: dict[tuple[str, str], np.ndarray] = {}
    debate_topics = posts.debate_topics
    try:
        for reply_value, triples in triples_by_reply.items():
            for variant in config.confounder_variants:
                matrix, _ = build_confounder_matrix(
                    triples, variant, models, grouping, post_tokens, category_rows,
                    debate_topics=debate_topics,
                )
                confounders[(reply_value, variant.value)] = matrix
    except InferenceError as exc:
        raise PipelineError("confounders", str(exc)) from exc
    done("confounders")

    # crossval
    stage("crossval")
    cv_reports = []
    for reply_value, triples in triples_by_reply.items():
        treatments = np.array([t.treatment.value for t in triples])
        y_cv = outcomes[(reply_value, config.cv_category_type.value)]
        for variant in config.confounder_variants:
            try:
                cv_reports.append(
                    cross_validate(
                        confounders[(reply_value, variant.value)],
                        treatments,
                        y_cv,
                        folds=config.folds,
                        seed=config.seed,
                        regularization=config.regularization,
                        ridge=config.outcome_ridge,
                        clip_epsilon=config.clip_epsilon,
                        reply_type=reply_value,
                        variant=variant.value,
                        category_type=config.cv_category_type.value,
                    )
                )
            except InferenceError as exc:
                warnings.append(
                    f"cross-validation failed for ({reply_value}, {variant.value}): {exc}"
                )
    done("crossval")

    # estimates
    stage("estimates")
    tasks: list[_CellTask] = []
    for reply_type in config.reply_types if run_estimates else ():
        reply_value = reply_type.value
        if reply_value not in triples_by_reply:
            continue
        treatments = np.array(
            [t.treatment.value for t in triples_by_reply[reply_value]]
        )
        for category_type in config.category_types:
            for variant in config.confounder_variants:
                tasks.append(
                    _CellTask(
                        reply_type=reply_value,
                        category_type=category_type.value,
                        variant=variant.value,
                        features=confounders[(reply_value, variant.value)],
                        treatments=treatments,
                        outcomes=outcomes[(reply_value, category_type.value)],
                        estimators=tuple(e.value for e in config.estimators),
                        aipw_variant=config.aipw_variant.value,
                        regularization=config.regularization,
                        ridge=config.outcome_ridge,
                        clip_epsilon=config.clip_epsilon,
                        bootstrap_replicates=config.bootstrap_replicates,
                        bootstrap_refit=config.bootstrap_refit,
                        seed=_cell_seed(
                            config.seed, reply_value, category_type.value, variant.value
                        ),
                    )
                )
    estimates: list[AteEstimate] = []
    failed_cells: list[str] = []

    def handle(task: _CellTask, outcome) -> None:
        if isinstance(outcome, Exception):
            failed_cells.append(
                f"({task.reply_type}, {task.category_type}, {task.variant})"
            )
            warnings.append(
                f"estimate cell ({task.reply_type}, {task.category_type}, "
                f"{task.variant}) failed: {outcome}"
            )
        else:
            cell_estimates, cell_warnings = outcome
            estimates.extend(cell_estimates)
            warnings.extend(cell_warnings)

    if config.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(_run_cell, task) for task in tasks]
            for task, future in zip(tasks, futures):
                try:
                    handle(task, future.result())
                except (EstimationError, InferenceError) as exc:
                    handle(task, exc)
    else:
        for task in tasks:
            try:
                handle(task, _run_cell(task))
            except (EstimationError, InferenceError) as exc:
                handle(task, exc)
    done("estimates")

    # report
    stage("report")
    topic_top_words = {
        debate_topic: [top_words(model, i, 10) for i in range(model.k)]
        for debate_topic, model in sorted(models.items())
    }
    report = RunReport(
        config=config.to_dict(),
        triple_counts={
            reply_value: triple_summary(triples)
            for reply_value, triples in sorted(triples_by_reply.items())
        },
        cv_reports=cv_reports,
        estimates=estimates,
        topic_top_words=topic_top_words,
        warnings=warnings,
        failed_cells=failed_cells,
        timings=timings,
    )
    (out_dir / "report.json").write_text(
        render_report(report, "structured"), encoding="utf-8"
    )
    (out_dir / "report.txt").write_text(render_report(report, "table"), encoding="utf-8")
    (out_dir / "report.csv").write_text(
        render_report(report, "delimited"), encoding="utf-8"
    )
    done("report")
    report.timings = timings
    return report
