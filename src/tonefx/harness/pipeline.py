"""End-to-end pipeline: corpus files in, run report out.

Stages run in a fixed order: load, triples, topics, outcomes,
confounders, crossval, estimates, report.  A CorpusError, LexiconError,
TopicModelError, InferenceError or OSError in any stage is re-raised as
a PipelineError that names the stage and carries the run's warnings so
far, with the original error as its cause.  Failures local to one
analysis cell (one reply type, category type and confounder variant) do
not abort the run; the cell is dropped with a warning and the caller
can detect the gap by comparing against the requested grid.

Each debate topic's topic model and theta batch are cached under
out_dir/cache.  The ``lda-*`` key covers the topic's posts in posts-file
order, the tokenizer's word lists and every fitting parameter, so reruns
over unchanged inputs skip the fit and a reordered posts file refits;
the ``theta-*`` key covers the name of the model's ``lda-*`` entry, the
batch's ordered posts and the settings of theta inference, so reruns
skip tokenizing and theta inference too.  No entry is ever removed, so a
directory reused across corpora or settings keeps growing; deleting
out_dir/cache is always safe, as the next run writes the same report
bytes.  Each model is also published as a byte copy of its cache entry
under out_dir/models (with the cache off, it is serialized there).

Each post is split into its raw word forms at most once per run, on
first use, and kept as an array of interned form ids that the topics,
outcomes and confounders stages share (``PostForms``).  A topic model
that misses the cache counts its debate topic's posts once, and its
theta batch is a row slice of those counts; each p1 and p3 post's
category row comes from its form counts.  A warm run, whose topic
models and theta batches are all cached, splits only the p1 and p3
posts.  Each run creates its own form table and lexicon;
each distinct form is lemmatized and categorized at most once per run,
and no memo outlives its run.  Likewise each p1 and p2 post's
topic proportions are inferred, or read from the cache, once per run,
in one batch per debate topic across all reply types, and each
confounder matrix is a lookup in these per-post tables.

``run_pipeline`` and ``fit_topic_models`` run numpy's bundled OpenBLAS
on one thread, and so does each worker of the ``jobs`` pool.  The dense
products of the topic fits and of theta inference then sum in one fixed
order, so the topic models and report bytes do not depend on the core
count or on ``OPENBLAS_NUM_THREADS``.  The caller's thread count is
restored on return.  With another BLAS, whose count cannot be set, the
run logs one warning per process and goes on at that library's own
count.

The cores go to the debate topics instead, whose models are independent:
each topic's fit and theta batch, where missing, are one kernel, and
where at least two kernels are large, they run at once on threads of
this process (see ``_run_kernels``), one per usable core at most, and
each still runs its BLAS on one thread, so its bits are those of a
serial run.  Everything around them runs on the calling thread in
debate-topic order, so cache entries, published models, the report and
the log lines come out the same either way.
``jobs`` sizes only the cell pool; CPU affinity limits the topic threads.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import json
import logging
import math
import multiprocessing
import os
import re
import shutil
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np
import scipy.sparse as sparse

from .. import topics
from ..corpus import (
    AnnotationCollection,
    CorpusError,
    Post,
    PostCollection,
    Triple,
    extract_triples,
    load_annotations,
    load_posts,
)
from ..estimators import (
    AteEstimate,
    EstimationError,
    Estimator,
    bootstrap_se,
    build_estimation_input,
    point_estimate,
)
from ..inference import (
    ConfounderVariant,
    InferenceError,
    build_confounder_matrix,
    cross_validate,
)
from ..lexicon import (
    CategoryLexicon,
    CategoryTypeGrouping,
    LexiconError,
    compute_outcome,
    load_lexicon,
    vectorize_forms,
)
from ..topics import (
    TOKENIZER_DIGEST,
    DocumentTermMatrix,
    FormIndex,
    LdaModel,
    TermCounts,
    TopicModelError,
    build_dtm,
    build_vocabulary,
    count_terms,
    elbo_converged,
    fit_lda,
    infer_theta_batch,
    load_model,
    load_theta,
    log_unconverged_theta,
    normalize_form,
    save_model,
    save_theta,
    top_words,
)
from .config import PipelineConfig
from .report import RunReport, render_report, triple_summary

logger = logging.getLogger(__name__)

T = TypeVar("T")

MODEL_CACHE_VERSION = "1"
THETA_CACHE_VERSION = "2"

# settings that change how a run goes but no number in its report, so
# report.json leaves them out and reruns that differ only in them match
_RUN_ONLY_FIELDS = ("jobs", "out_dir", "use_cache")


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage.

    ``warnings`` holds the run's warnings up to the failure, since no
    report carries them.
    """

    def __init__(self, stage: str, message: str, warnings: Sequence[str] = ()):
        super().__init__(f"stage {stage!r}: {message}")
        self.warnings = tuple(warnings)


# the package's own errors, which a stage re-raises as a PipelineError
_STAGE_ERRORS = (CorpusError, LexiconError, TopicModelError, InferenceError, OSError)


@contextmanager
def _stage(name: str, timings: dict[str, float], warnings: Sequence[str]) -> Iterator[None]:
    """Time one stage into ``timings``; its package errors become a PipelineError."""
    start = time.perf_counter()
    try:
        yield
    except _STAGE_ERRORS as exc:
        raise PipelineError(name, str(exc), warnings) from exc
    timings[name] = time.perf_counter() - start


# (getter, setter) pairs of OpenBLAS's thread count, by build
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS that numpy bundles.

    Looked up once per process; when there is none (another BLAS), one
    warning says so and the result is None.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = (), ctypes.c_int
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                return getter, setter
    logger.warning(
        "no OpenBLAS thread setter found next to numpy; BLAS runs at its own "
        "thread count, so report bytes may depend on it"
    )
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with BLAS on one thread, then restore the caller's count.

    Nested use restores each level's count.  The count is per process, so
    it also holds on the threads that ``_run_kernels`` starts inside the
    body, and two threads of one process should not run pipelines at
    once: the first to return would restore its caller's count under the
    other.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    getter, setter = calls
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


def _pin_worker() -> None:
    """Pool initializer: the worker's BLAS runs on one thread for its life."""
    calls = _blas_thread_calls()
    if calls is not None:
        calls[1](1)


def _cell_pool(jobs: int) -> ProcessPoolExecutor:
    """A pool of ``jobs`` workers, each on one BLAS thread.

    Workers come from a forkserver where the platform has one: forking a
    process whose BLAS threads are live is unsafe, and a fresh worker
    takes its thread count from the initializer rather than the parent.
    """
    method = "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
    return ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context(method),
        initializer=_pin_worker,
    )


def load_warnings(
    posts: PostCollection | None, annotations: AnnotationCollection | None
) -> list[str]:
    """One line per skipped record and unresolved parent, named by its file."""
    lines: list[str] = []
    if posts is not None:
        lines += [f"posts: {message}" for message in (*posts.record_errors, *posts.warnings)]
    if annotations is not None:
        lines += [f"annotations: {message}" for message in annotations.record_errors]
    return lines


def _slug(text: str) -> str:
    cleaned = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return cleaned or "topic"


# the warning of each kind of cache entry whose file cannot be read
_UNREADABLE_ENTRY = {
    "lda": "cache entry for debate topic %r unreadable (%s); refitting",
    "theta": "theta cache entry for debate topic %r unreadable (%s); inferring again",
}


def _cache_entry(
    config: PipelineConfig, kind: str, debate_topic: str,
    payload: Callable[[], Mapping], read: Callable[[Path], T],
) -> tuple[Path | None, T | None]:
    """One debate topic's ``kind`` cache entry: its path, and what ``read`` gives from it.

    The name ends in 16 hex digits of the sha256 of ``payload()`` as sorted,
    compact JSON.  With the cache off, the path is None and ``payload`` is
    not called.  The entry is None when the file is missing or ``read``
    raises a TopicModelError on it, which logs one warning.
    """
    if not config.use_cache:
        return None, None
    blob = json.dumps(payload(), sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    path = Path(config.out_dir) / "cache" / f"{kind}-{_slug(debate_topic)}-{key[:16]}.json"
    if path.exists():
        try:
            return path, read(path)
        except TopicModelError as exc:
            logger.warning(_UNREADABLE_ENTRY[kind], debate_topic, exc)
    return path, None


class PostForms(dict):
    """Each post's ``split_words`` forms as an array of interned form ids, keyed
    by post id; a post's text is split on its first lookup, and only then.

    ``forms`` gives each distinct form of the run its id, in first-seen
    order.  ``term_counts`` normalizes each form with ``normalize_form``
    the first time a topic count needs it, so a form is lemmatized once
    per table, and ``category_rows`` categorizes it with the run's lexicon.
    """

    def __init__(self, posts: PostCollection):
        super().__init__()
        self._posts = posts
        self.forms = FormIndex()
        # term -> term id, and the term id of each form normalized so far (-1: stop word)
        self._terms: dict[str, int] = {}
        self._form_terms = np.empty(0, dtype=np.int32)

    def __missing__(self, post_id: str) -> np.ndarray:
        ids = self[post_id] = self.forms.split(self._posts.get(post_id).text)
        return ids

    def term_counts(self, post_ids: Sequence[str]) -> TermCounts:
        """The topic-model term counts of the given posts, in order."""
        docs = [self[post_id] for post_id in post_ids]
        new = list(itertools.islice(self.forms, len(self._form_terms), None))
        if new:
            terms = self._terms
            tokens = map(normalize_form, new)
            ids = [terms.setdefault(token, len(terms)) if token else -1 for token in tokens]
            self._form_terms = np.concatenate((self._form_terms, np.array(ids, dtype=np.int32)))
        return count_terms(docs, list(self._terms), self._form_terms)

    def category_rows(
        self, lexicon: CategoryLexicon, grouping: CategoryTypeGrouping, post_ids: Sequence[str]
    ) -> dict[str, np.ndarray]:
        """The category row of each given post, by post id."""
        rows = vectorize_forms(lexicon, grouping, [self[i] for i in post_ids], list(self.forms))
        return dict(zip(post_ids, rows))


# a kernel with this many multiply-adds per sweep (rows x terms x k) is
# large enough for a thread of its own.  Pairs of topics of 240 posts at
# k=12 on 2 cores, serial against threaded (medians of 10 fits, 16 theta
# batches): at 0.55M both kernels ran at the same speed either way; at
# 0.78M the fits ran 1.58x faster but theta only 1.06x, for 45% more CPU
# time; from 1.0M up both ran 1.4-1.7x faster
_THREAD_MIN_MADDS = 1_000_000


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity
        return os.cpu_count() or 1


def _run_kernels(kernels: Sequence[Callable[[], T]], madds: Sequence[int]) -> list[T]:
    """Call each kernel and return the results in order.

    ``madds`` gives each kernel's multiply-adds per sweep.  When at least
    two of them reach ``_THREAD_MIN_MADDS`` and two cores are usable, the
    kernels run at once on min(kernels, usable cores) threads, the
    calling thread among them, each taking the next kernel not yet
    taken; smaller kernels would only trade the GIL back and forth, so
    otherwise they run in order on the calling thread.  Either way, the
    first kernel in order that raised re-raises here, once no kernel is
    running.  A kernel must not log or touch shared state; it runs with
    the caller's BLAS thread count, which is per process, so its result
    has the same bits on any thread.
    """
    workers = min(len(kernels), _usable_cores())
    if workers < 2 or sum(m >= _THREAD_MIN_MADDS for m in madds) < 2:
        return [kernel() for kernel in kernels]
    results: list = [None] * len(kernels)
    errors: list[Exception | None] = [None] * len(kernels)
    untaken = iter(range(len(kernels)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(untaken, None)
            if i is None:
                return
            try:
                results[i] = kernels[i]()
            except Exception as exc:  # re-raised on the calling thread
                errors[i] = exc

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def _topic_counts(
    config: PipelineConfig, forms: PostForms, subset: Sequence[Post]
) -> DocumentTermMatrix:
    """The count matrix of one debate topic's posts over the vocabulary they give."""
    counted = forms.term_counts([post.id for post in subset])
    vocabulary = build_vocabulary(counted, min_df=config.min_df, max_df=config.max_df)
    return build_dtm(counted, vocabulary)


def _topic_kernel(
    config: PipelineConfig, model: LdaModel | None, dtm: DocumentTermMatrix | None,
    batch: sparse.csr_matrix | None,
) -> tuple[LdaModel, tuple[np.ndarray, int] | None]:
    """Fit a model on ``dtm`` unless ``model`` is given, then infer the theta of
    the ``batch`` counts if given, with its count of rows that did not converge."""
    if model is None:
        model = fit_lda(
            dtm, k=config.k, seed=config.seed, max_iters=config.lda_max_iters, tol=config.lda_tol
        )
    if batch is None:
        return model, None
    converged = np.empty(batch.shape[0], dtype=bool)
    theta = infer_theta_batch(model, batch, converged=converged)
    return model, (theta, int(np.count_nonzero(~converged)))


@_one_blas_thread()
def fit_topic_models(
    config: PipelineConfig,
    posts: PostCollection,
    debate_topics: Sequence[str],
    forms: PostForms,
    batches: Mapping[str, Sequence[Post]] | None = None,
) -> tuple[dict[str, LdaModel], dict[str, np.ndarray]]:
    """Fit or read one topic model per debate topic of ``debate_topics``, and infer
    or read the theta rows of each post of ``batches``, one batch per debate topic.

    Per debate topic, the model's cache entry is read, then the batch's;
    only what is missing is counted from ``forms``.  A missing model
    counts the topic's posts once, and its batch is a row slice of those
    counts; a cached model's batch is counted against its vocabulary.
    One kernel per debate topic fits its missing model, then infers its
    missing batch, all in one ``_run_kernels`` call; everything else, logging included, runs on
    the calling thread in the order of ``debate_topics``.  Each model is
    also published under out_dir/models, as a copy of its cache entry
    when the cache is on, named by the slug of its debate topic; where
    two debate topics of ``posts`` share a slug, each name also carries
    the first 8 hex digits of the sha256 of its topic, so a model's file
    name depends only on the corpus.  One logged warning, which names the
    debate topic and stays out of the report, goes to each entry that
    cannot be read or does not hold its batch, which is computed again;
    each model, fitted or cached, that stopped at ``lda_max_iters`` before
    meeting ``lda_tol``, with its final relative ELBO change; each batch
    with unconverged rows; and each model fitted now whose k exceeds its
    vocabulary or whose posts include some with no vocabulary term.
    """
    batches = batches or {}
    models_dir = Path(config.out_dir) / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    slug_counts = Counter(_slug(debate_topic) for debate_topic in posts.debate_topics)
    # per debate topic: cache path, cached model, theta cache path, cached (theta, unconverged)
    entries: dict[str, tuple] = {}
    kernels: dict[str, Callable[[], tuple]] = {}
    madds: list[int] = []
    for debate_topic in debate_topics:
        subset = [p for p in posts if p.debate_topic == debate_topic]
        cache_path, model = _cache_entry(
            config, "lda", debate_topic,
            lambda: {
                "posts": [(p.id, p.text) for p in subset], "tokenizer": TOKENIZER_DIGEST,
                "min_df": config.min_df, "max_df": config.max_df,
                "k": config.k, "seed": config.seed,
                "max_iters": config.lda_max_iters, "tol": config.lda_tol,
                "cache_version": MODEL_CACHE_VERSION,
            },
            load_model,
        )
        batch = batches.get(debate_topic)
        theta_path, theta = (None, None) if batch is None else _cache_entry(
            config, "theta", debate_topic,
            # the lda-* name stands for the model: its key covers all that the fit reads
            lambda: {
                "model": cache_path.name, "posts": [(p.id, p.text) for p in batch],
                "max_iters": topics._THETA_MAX_ITERS, "tol": topics._THETA_TOL,
                "cache_version": THETA_CACHE_VERSION,
            },
            lambda path: load_theta(path, [p.id for p in batch], config.k),
        )
        entries[debate_topic] = cache_path, model, theta_path, theta
        dtm = counts = None
        if model is not None:
            logger.info("topic model for %r loaded from cache", debate_topic)
        else:
            dtm = _topic_counts(config, forms, subset)
            vocabulary = dtm.vocabulary
            if dtm.zero_rows:
                logger.warning(
                    "debate topic %r: %d of %d posts have no in-vocabulary tokens",
                    debate_topic, len(dtm.zero_rows), dtm.n_docs,
                )
            if config.k > len(vocabulary):
                logger.warning(
                    "debate topic %r: k=%d exceeds the %d-term vocabulary",
                    debate_topic, config.k, len(vocabulary),
                )
        if batch is not None and theta is None:
            rows = {post.id: i for i, post in enumerate(subset)}
            if dtm is not None and all(post.id in rows for post in batch):
                # the fit's counts hold every row of the batch
                counts = dtm.counts[[rows[post.id] for post in batch]]
            else:
                counted = forms.term_counts([post.id for post in batch])
                counts = build_dtm(counted, (model or dtm).vocabulary).counts
        parts = [m for m in (None if dtm is None else dtm.counts, counts) if m is not None]
        if parts:
            kernels[debate_topic] = functools.partial(_topic_kernel, config, model, dtm, counts)
            # a kernel is as large as its larger part
            madds.append(max(math.prod(m.shape) for m in parts) * config.k)
    done = dict(zip(kernels, _run_kernels(list(kernels.values()), madds)))
    models: dict[str, LdaModel] = {}
    thetas: dict[str, np.ndarray] = {}
    for debate_topic in debate_topics:
        cache_path, cached, theta_path, theta = entries[debate_topic]
        model, inferred = done.get(debate_topic, (cached, None))
        slug = _slug(debate_topic)
        if slug_counts[slug] > 1:
            slug += "-" + hashlib.sha256(debate_topic.encode("utf-8")).hexdigest()[:8]
        model_path = models_dir / f"{slug}.json"
        if cached is None:
            save_model(model, cache_path or model_path)
        if cache_path:
            shutil.copyfile(cache_path, model_path)
        trace = model.elbo_trace
        if not elbo_converged(trace, config.lda_tol):
            change = abs(trace[-1] - trace[-2]) / abs(trace[-2]) if len(trace) > 1 else math.nan
            logger.warning(
                "debate topic %r: topic model did not converge within lda_max_iters=%d "
                "(final relative ELBO change %.3g, lda_tol %g)",
                debate_topic, config.lda_max_iters, change, config.lda_tol,
            )
        models[debate_topic] = model
        if debate_topic not in batches:
            continue
        post_ids = [post.id for post in batches[debate_topic]]
        if theta is None:
            theta = inferred
            if theta_path:
                save_theta(theta_path, post_ids, *theta)
        if theta[1]:
            log_unconverged_theta(theta[1], len(post_ids), f"debate topic {debate_topic!r}")
        thetas.update(zip(post_ids, theta[0]))
    return models, thetas


def _cell_seed(seed: int, reply_type: str, category_type: str, variant: str) -> int:
    blob = f"{seed}|{reply_type}|{category_type}|{variant}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


@dataclass(eq=False)
class _CellTask:
    """Everything one estimate cell needs, picklable for worker processes."""

    config: PipelineConfig
    reply_type: str
    category_type: str
    variant: str
    features: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray
    seed: int

    @property
    def cell(self) -> str:
        return f"({self.reply_type}, {self.category_type}, {self.variant})"


def _run_cell(task: _CellTask) -> tuple[list[AteEstimate], list[str], bool, str | None]:
    """One cell's estimates, its warning lines, whether it failed, and the line
    to log when propensity refits of its bootstrap ended unconverged.

    Every requested estimator is scored from one nuisance fit, and its
    standard error comes from one ``bootstrap_se`` pass over the cell
    (none when ``bootstrap_replicates`` is 0).  A cell that cannot be
    estimated gives no estimates and one warning line, so the run goes on.
    """
    config = task.config
    try:
        data = build_estimation_input(
            task.features,
            task.treatments,
            task.outcomes,
            regularization=config.regularization,
            ridge=config.outcome_ridge,
            clip_epsilon=config.clip_epsilon,
        )
        bootstrap = None
        if config.bootstrap_replicates:
            bootstrap = bootstrap_se(
                data,
                config.estimators,
                replicates=config.bootstrap_replicates,
                seed=task.seed,
                refit=config.bootstrap_refit,
                aipw_variant=config.aipw_variant,
                regularization=config.regularization,
                ridge=config.outcome_ridge,
                clip_epsilon=config.clip_epsilon,
            )
        standard_errors = bootstrap.standard_errors if bootstrap else {}
        estimates = [
            AteEstimate(
                estimator=estimator,
                psi=point_estimate(data, estimator, aipw_variant=config.aipw_variant),
                standard_error=standard_errors.get(estimator),
                n=data.n,
                reply_type=task.reply_type,
                category_type=task.category_type,
                aipw_variant=config.aipw_variant if estimator is Estimator.AIPW else None,
                confounder_variant=task.variant,
            )
            for estimator in config.estimators
        ]
    except (EstimationError, InferenceError) as exc:
        return [], [f"estimate cell {task.cell} failed: {exc}"], True, None
    warnings, unconverged = [], None
    if bootstrap and bootstrap.skipped:
        warnings.append(
            f"cell {task.cell}: {bootstrap.skipped} of {config.bootstrap_replicates} "
            "bootstrap replicates skipped"
        )
    if bootstrap and bootstrap.unconverged:
        unconverged = (
            f"cell {task.cell}: {bootstrap.unconverged} of "
            f"{config.bootstrap_replicates - bootstrap.skipped} bootstrap propensity refits "
            "ended unconverged (failed line search or iteration cap)"
        )
    return estimates, warnings, False, unconverged


@_one_blas_thread()
def run_pipeline(config: PipelineConfig, run_estimates: bool = True) -> RunReport:
    """Run every stage and write report files under config.out_dir.

    ``run_estimates=False`` stops after cross-validation, for callers
    that only want nuisance diagnostics, and writes no report files, so
    it leaves an earlier estimate run's report in place.
    """
    timings: dict[str, float] = {}
    warnings: list[str] = []
    out_dir = Path(config.out_dir)

    with _stage("load", timings, warnings):
        posts = load_posts(config.posts_path)
        warnings += load_warnings(posts, None)
        annotations = load_annotations(config.annotations_path)
        warnings += load_warnings(None, annotations)
        lexicon, grouping = load_lexicon(config.lexicon_path, config.grouping_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        forms = PostForms(posts)

    with _stage("triples", timings, warnings):
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
            raise PipelineError("triples", "no reply type yielded any triples", warnings)

    with _stage("topics", timings, warnings):
        all_triples = [t for triples in triples_by_reply.values() for t in triples]
        # each debate topic's p1 and p2 posts, first seen over the reply types
        batches: dict[str, dict[str, Post]] = {}
        for triple in all_triples if ConfounderVariant.FULL in config.confounder_variants else ():
            batch = batches.setdefault(triple.debate_topic, {})
            batch.update((post.id, post) for post in (triple.p1, triple.p2))
        # a debate topic without triples feeds no confounder, so it is not fitted
        models, thetas = fit_topic_models(
            config, posts, sorted({t.debate_topic for t in all_triples}), forms,
            {topic: list(batch.values()) for topic, batch in batches.items()},
        )

    with _stage("outcomes", timings, warnings):
        outcomes: dict[tuple[str, str], np.ndarray] = {}
        # the crossval stage scores its configured category even when the
        # estimate grid does not include it
        category_types = list(config.category_types)
        if config.cv_category_type not in category_types:
            category_types.append(config.cv_category_type)
        # each distinct p1 and p3, first seen over the reply types
        category_rows = forms.category_rows(lexicon, grouping, list(dict.fromkeys(
            post.id for triple in all_triples for post in (triple.p1, triple.p3)
        )))
        for reply_value, triples in triples_by_reply.items():
            p1_rows = np.array([category_rows[triple.p1.id] for triple in triples])
            p3_rows = np.array([category_rows[triple.p3.id] for triple in triples])
            for category_type in category_types:
                columns = grouping.columns(category_type)
                outcomes[(reply_value, category_type.value)] = compute_outcome(
                    p1_rows[:, columns], p3_rows[:, columns]
                )

    with _stage("confounders", timings, warnings):
        confounders = {
            (reply_value, variant.value): build_confounder_matrix(
                triples, variant, thetas, category_rows
            )
            for reply_value, triples in triples_by_reply.items()
            for variant in config.confounder_variants
        }

    with _stage("crossval", timings, warnings):
        cv_reports = []
        for reply_value, triples in triples_by_reply.items():
            treatments = np.array([t.treatment for t in triples])
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

    with _stage("estimates", timings, warnings):
        tasks: list[_CellTask] = []
        for reply_type in config.reply_types if run_estimates else ():
            reply_value = reply_type.value
            if reply_value not in triples_by_reply:
                continue
            treatments = np.array([t.treatment for t in triples_by_reply[reply_value]])
            for category_type in config.category_types:
                for variant in config.confounder_variants:
                    tasks.append(
                        _CellTask(
                            config=config,
                            reply_type=reply_value,
                            category_type=category_type.value,
                            variant=variant.value,
                            features=confounders[(reply_value, variant.value)],
                            treatments=treatments,
                            outcomes=outcomes[(reply_value, category_type.value)],
                            seed=_cell_seed(
                                config.seed, reply_value, category_type.value, variant.value
                            ),
                        )
                    )
        estimates: list[AteEstimate] = []
        failed_cells: list[str] = []
        parallel = config.jobs > 1 and len(tasks) > 1
        # both maps yield the cells in task order
        with _cell_pool(config.jobs) if parallel else nullcontext() as pool:
            results = pool.map(_run_cell, tasks) if parallel else map(_run_cell, tasks)
            for task, (cell_estimates, cell_warnings, failed, unconverged) in zip(tasks, results):
                estimates.extend(cell_estimates)
                warnings.extend(cell_warnings)
                if unconverged:
                    logger.warning(unconverged)
                if failed:
                    failed_cells.append(task.cell)

    with _stage("report", timings, warnings):
        report = RunReport(
            config={
                name: value
                for name, value in config.to_dict().items()
                if name not in _RUN_ONLY_FIELDS
            },
            triple_counts={
                reply_value: triple_summary(triples)
                for reply_value, triples in sorted(triples_by_reply.items())
            },
            cv_reports=cv_reports,
            estimates=estimates,
            topic_top_words={
                debate_topic: [top_words(model, i, 10) for i in range(model.k)]
                for debate_topic, model in sorted(models.items())
            },
            warnings=warnings,
            failed_cells=failed_cells,
            # the same dict, so the report stage's own time lands here too
            timings=timings,
        )
        if run_estimates:
            for suffix, style in (("json", "structured"), ("txt", "table"), ("csv", "delimited")):
                text = render_report(report, style)
                (out_dir / f"report.{suffix}").write_text(text, encoding="utf-8")
    return report
