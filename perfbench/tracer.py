"""Per-layer tracing of one ``estimate`` run, from outside the package.

A Tracer replaces public tonefx functions with wrappers while it is
installed and puts the originals back when it is removed.  Modules
import functions by name (``from ..estimators import bootstrap_se``),
so a function is replaced in every loaded tonefx module that holds it,
not only where it is defined.  ``Tokenizer.__call__`` is replaced on
the class.

Each wrapped call adds its inclusive seconds and one call to the
totals of its name.  ``categorize_token`` runs about a million times
per run, so it is only counted, per token form, without a timer.
Counts of work done are taken from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

# traced name -> time metric; both model I/O functions feed topics.model_io_s
TIME_METRICS = {
    "corpus.load_posts": "corpus.load_posts_s",
    "corpus.load_annotations": "corpus.load_annotations_s",
    "corpus.extract_triples": "corpus.extract_triples_s",
    "lexicon.vectorize_post": "lexicon.vectorize_post_s",
    "topics.tokenize": "topics.tokenize_s",
    "topics.build_vocabulary": "topics.build_vocabulary_s",
    "topics.build_dtm": "topics.build_dtm_s",
    "topics.fit_lda": "topics.fit_lda_s",
    "topics.infer_theta_batch": "topics.infer_theta_s",
    "topics.save_model": "topics.model_io_s",
    "topics.load_model": "topics.model_io_s",
    "inference.build_confounder_matrix": "inference.build_confounder_matrix_s",
    "inference.cross_validate": "inference.cross_validate_s",
    "inference.fit_propensity": "inference.fit_propensity_s",
    "inference.fit_outcome_models": "inference.fit_outcome_s",
    "estimators.build_estimation_input": "estimators.build_estimation_input_s",
    "estimators.bootstrap_se": "estimators.bootstrap_se_s",
    "report.render_report": "report.render_s",
}

# traced name -> call-count metric
CALL_METRICS = {
    "lexicon.vectorize_post": "lexicon.vectorize_post_calls",
    "topics.tokenize": "topics.tokenize_calls",
    "topics.fit_lda": "topics.fit_lda_calls",
    "inference.fit_propensity": "inference.fit_propensity_calls",
    "inference.fit_outcome_models": "inference.fit_outcome_calls",
    "estimators.bootstrap_se": "estimators.bootstrap_se_calls",
}

# counted from arguments and results by the hooks below
TALLY_METRICS = (
    "corpus.posts",
    "corpus.triples",
    "topics.tokens",
    "topics.lda_sweeps",
    "topics.infer_theta_rows",
    "topics.cache_hits",
    "topics.cache_misses",
    "inference.propensity_iters",
    "inference.propensity_nonconverged",
    "estimators.bootstrap_skipped",
    "estimators.bootstrap_propensity_fits",
    "report.bytes",
)

COUNT_METRICS = (
    *CALL_METRICS.values(),
    *TALLY_METRICS,
    "lexicon.categorize_token_calls",
    "lexicon.distinct_forms",
    "estimators.resamples",
)


def _argument(fn: Callable, name: str) -> Callable[[tuple, dict], Any]:
    """Read one argument of a call to ``fn``, defaults included."""
    signature = inspect.signature(fn)

    def get(args: tuple, kwargs: dict) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


class Tracer:
    """Times and counts of one traced run; use as a context manager."""

    def __init__(self) -> None:
        self.elapsed: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.tally: Counter[str] = Counter()
        self.forms: dict[str, int] = {}
        self.resamples: dict[int, int] = {}
        self._active: Counter[str] = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        from tonefx import corpus, estimators, inference, lexicon, topics
        from tonefx.harness import report

        self._timed(corpus, "load_posts", lambda r, a, k: self._add("corpus.posts", len(r)))
        self._timed(corpus, "load_annotations")
        self._timed(corpus, "extract_triples", lambda r, a, k: self._add("corpus.triples", len(r)))
        self._timed(lexicon, "vectorize_post")
        self._count_forms(lexicon, "categorize_token")
        self._timed(
            topics.Tokenizer, "__call__", lambda r, a, k: self._add("topics.tokens", len(r)),
            name="topics.tokenize",
        )
        self._timed(topics, "build_vocabulary")
        self._timed(topics, "build_dtm")
        self._timed(topics, "fit_lda", lambda r, a, k: self._add("topics.lda_sweeps", len(r.elbo_trace)))
        self._timed(
            topics, "infer_theta_batch",
            lambda r, a, k: self._add("topics.infer_theta_rows", r.shape[0]),
        )
        save_path = _argument(topics.save_model, "path")
        load_path = _argument(topics.load_model, "path")
        # the pipeline writes a cache entry exactly when it misses
        self._timed(
            topics, "save_model",
            lambda r, a, k: self._add("topics.cache_misses", Path(save_path(a, k)).parent.name == "cache"),
        )
        self._timed(
            topics, "load_model",
            lambda r, a, k: self._add("topics.cache_hits", Path(load_path(a, k)).parent.name == "cache"),
        )
        self._timed(inference, "build_confounder_matrix")
        self._timed(inference, "cross_validate")
        tol = _argument(inference.fit_propensity, "tol")

        def propensity(result, args, kwargs) -> None:
            self._add("inference.propensity_iters", result.iterations)
            self._add("inference.propensity_nonconverged", result.gradient_norm >= tol(args, kwargs))
            self._add("estimators.bootstrap_propensity_fits", self._active["estimators.bootstrap_se"] > 0)

        self._timed(inference, "fit_propensity", propensity)
        self._timed(inference, "fit_outcome_models")
        self._timed(estimators, "build_estimation_input")
        seed = _argument(estimators.bootstrap_se, "seed")
        replicates = _argument(estimators.bootstrap_se, "replicates")

        def bootstrap(result, args, kwargs) -> None:
            # replicate i of a cell always draws from default_rng([seed, i]),
            # so calls sharing a seed reuse the same resamples
            key = seed(args, kwargs)
            self.resamples[key] = max(self.resamples.get(key, 0), replicates(args, kwargs))
            self._add("estimators.bootstrap_skipped", result.skipped)

        self._timed(estimators, "bootstrap_se", bootstrap)
        self._timed(
            report, "render_report",
            lambda r, a, k: self._add("report.bytes", len(r.encode("utf-8"))),
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _add(self, key: str, amount: int) -> None:
        self.tally[key] += int(amount)

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        owners = [owner]
        if inspect.ismodule(owner):
            owners = [
                module
                for name, module in list(sys.modules.items())
                if (name == "tonefx" or name.startswith("tonefx."))
                and getattr(module, attr, None) is original
            ]
        for target in owners:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _timed(
        self,
        owner: Any,
        attr: str,
        after: Callable[[Any, tuple, dict], None] | None = None,
        name: str | None = None,
    ) -> None:
        fn = getattr(owner, attr)
        name = name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        elapsed, calls, active = self.elapsed, self.calls, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed[name] += clock() - start
                calls[name] += 1
                active[name] -= 1
            if after is not None:
                after(result, args, kwargs)
            return result

        self._replace(owner, attr, wrapper)

    def _count_forms(self, owner: Any, attr: str) -> None:
        fn = getattr(owner, attr)
        forms = self.forms

        def counted(lexicon, token):
            forms[token] = forms.get(token, 0) + 1
            return fn(lexicon, token)

        self._replace(owner, attr, counted)

    def counts(self) -> dict[str, int]:
        """Every count metric; two runs of the same input must agree exactly."""
        out = {metric: self.calls[name] for name, metric in CALL_METRICS.items()}
        out.update({metric: self.tally[metric] for metric in TALLY_METRICS})
        out["lexicon.categorize_token_calls"] = sum(self.forms.values())
        out["lexicon.distinct_forms"] = len(self.forms)
        out["estimators.resamples"] = sum(self.resamples.values())
        return out

    def seconds(self) -> dict[str, float]:
        """Inclusive time per layer metric: nested calls count in both."""
        out = dict.fromkeys(TIME_METRICS.values(), 0.0)
        for name, seconds in self.elapsed.items():
            out[TIME_METRICS[name]] += seconds
        return out
