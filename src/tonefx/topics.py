"""Tokenization, vocabulary construction, and latent topic models.

One topic model is fit per debate topic.  The generative story for a
debate topic's posts is standard latent Dirichlet allocation with k
latent topics over a vocabulary of V terms:

    beta_k  ~ Dirichlet(gamma_prior)     per-topic term distribution
    theta_i ~ Dirichlet(alpha_prior)     per-post topic proportions
    z_ij    ~ Multinomial(theta_i)       topic of token j of post i
    w_ij    ~ Multinomial(beta_{z_ij})   the token itself

Models are fit by coordinate-ascent mean-field variational inference
with a fully factorized posterior: a Dirichlet q(theta_i | g_i) per post,
a Dirichlet q(beta_k | l_k) per topic, and multinomial token
responsibilities.  Every update is an exact coordinate maximizer of the
evidence lower bound, and per-post parameters are warm-started across
sweeps, so the recorded ELBO trace never decreases (up to float noise).
The posterior mean E[theta_i] serves as the post's ideology embedding.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sparse
from scipy.special import gammaln, psi

logger = logging.getLogger(__name__)

MODEL_FORMAT = "tonefx-lda"
MODEL_FORMAT_VERSION = "1.0"
DEFAULT_MIN_DF = 0.02
DEFAULT_MAX_DF = 0.80
DEFAULT_GAMMA_PRIOR = 0.01

_TOKEN_RE = re.compile(r"[a-z]+(?:'[a-z]+)*")
_VOWELS = "aeiou"


class TopicModelError(ValueError):
    """Invalid input to vocabulary construction or topic model fitting."""


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Read a plain-text word list, one entry per line, '#' for comments."""
    words = set()
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


def load_lemma_exceptions(path: str | Path) -> dict[str, str]:
    """Read a lemmatizer exception table, one 'token<TAB>base' entry per line."""
    table: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TopicModelError(
                f"{Path(path).name} line {lineno}: expected 'token base', got {line!r}"
            )
        table[parts[0].lower()] = parts[1].lower()
    return table


def _restem(stem: str) -> str:
    #"running" -> "runn" -> "run"; keep ll/ss/zz ("falling" -> "fall")
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS + "lsz":
        return stem[:-1]
    # consonant-vowel-consonant stems lost a silent e: "fir" -> "fire"
    if (
        len(stem) >= 3
        and stem[-1] not in _VOWELS + "wxy"
        and stem[-2] in _VOWELS
        and stem[-3] not in _VOWELS
    ):
        return stem + "e"
    return stem


def lemmatize_token(token: str, exceptions: Mapping[str, str] | None = None) -> str:
    """Reduce a token to a base form with suffix rules and an exception table.

    Handles plural -s/-es/-ies and verbal -ing/-ed, restoring silent e
    and undoubling final consonants where the stem shape calls for it.
    The first matching rule wins; irregular forms belong in the table.
    """
    if exceptions:
        base = exceptions.get(token)
        if base is not None:
            return base
    n = len(token)
    if token.endswith("ies") and n >= 5:
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("es") and n >= 4:
        stem = token[:-2]
        if stem.endswith(("s", "x", "z", "ch", "sh")):
            return stem
    if token.endswith("s") and n >= 4 and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    if token.endswith("ing") and n >= 6:
        return _restem(token[:-3])
    if token.endswith("ed") and n >= 5:
        return _restem(token[:-2])
    return token


@dataclass(frozen=True)
class Tokenizer:
    """Configurable text-to-token mapping shared by all text consumers.

    Lowercases, keeps alphabetic unigrams (internal apostrophes allowed),
    drops stop words from the configured list, and optionally lemmatizes.
    Each raw form is normalized once per tokenizer object and memoized,
    so every occurrence of a form yields the same string object.
    """

    stopwords: frozenset[str] = frozenset()
    lemmatize: bool = True
    exceptions: tuple[tuple[str, str], ...] = ()
    _table: dict[str, str] = field(init=False, repr=False, compare=False, hash=False, default=None)  # type: ignore[assignment]
    # raw form -> its token, or "" for a dropped form (stop word, empty lemma)
    _forms: dict[str, str] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_table", dict(self.exceptions))

    def __call__(self, text: str) -> list[str]:
        forms = self._forms
        raws = _TOKEN_RE.findall(text.lower())
        for raw in set(raws).difference(forms):
            forms[raw] = self._normalize(raw)
        return list(filter(None, map(forms.__getitem__, raws)))

    def _normalize(self, raw: str) -> str:
        if raw in self.stopwords:
            return ""
        return lemmatize_token(raw, self._table) if self.lemmatize else raw

    def fingerprint(self) -> str:
        """Stable digest of the configuration, used in cache keys."""
        payload = json.dumps(
            {
                "stopwords": sorted(self.stopwords),
                "lemmatize": self.lemmatize,
                "exceptions": sorted(self.exceptions),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def default_tokenizer() -> Tokenizer:
    """Tokenizer with the shipped stop-word list and exception table."""
    data_dir = Path(__file__).parent / "data"
    return Tokenizer(
        stopwords=load_wordlist(data_dir / "stopwords.txt"),
        lemmatize=True,
        exceptions=tuple(sorted(load_lemma_exceptions(data_dir / "lemma_exceptions.txt").items())),
    )


@lru_cache(maxsize=1)
def surface_tokenizer() -> Tokenizer:
    """Tokenizer that keeps stop words and surface forms (lexicon counting)."""
    return Tokenizer(stopwords=frozenset(), lemmatize=False)


@dataclass(eq=False)
class Vocabulary:
    """Retained terms in sorted order with their document frequencies."""

    terms: tuple[str, ...]
    document_frequency: np.ndarray

    def __post_init__(self) -> None:
        self.document_frequency = np.asarray(self.document_frequency, dtype=float)
        if len(self.terms) != len(set(self.terms)):
            raise TopicModelError("vocabulary terms must be unique")
        if self.document_frequency.shape != (len(self.terms),):
            raise TopicModelError("document_frequency must align with terms")
        self._index = {term: i for i, term in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def index(self) -> dict[str, int]:
        return self._index


def build_vocabulary(
    token_lists: Sequence[Sequence[str]],
    min_df: float = DEFAULT_MIN_DF,
    max_df: float = DEFAULT_MAX_DF,
) -> Vocabulary:
    """Collect terms whose document frequency lies strictly inside (min_df, max_df).

    Each token list is one post.  Document frequency is the fraction of
    posts containing the term at least once.  Both bounds are exclusive,
    so terms at exactly min_df or max_df are dropped.  Terms are sorted,
    which fixes column order everywhere downstream.
    """
    if not 0.0 <= min_df < max_df <= 1.0:
        raise TopicModelError(
            f"need 0 <= min_df < max_df <= 1, got min_df={min_df!r} max_df={max_df!r}"
        )
    if len(token_lists) == 0:
        raise TopicModelError("cannot build a vocabulary from zero posts")
    doc_counts: dict[str, int] = {}
    for toks in token_lists:
        for term in set(toks):
            doc_counts[term] = doc_counts.get(term, 0) + 1
    n_docs = len(token_lists)
    kept = sorted(
        term for term, count in doc_counts.items() if min_df < count / n_docs < max_df
    )
    if not kept:
        raise TopicModelError(
            f"no terms have document frequency strictly inside ({min_df:g}, {max_df:g}); "
            "adjust the thresholds for this corpus"
        )
    df = np.array([doc_counts[term] / n_docs for term in kept], dtype=float)
    return Vocabulary(terms=tuple(kept), document_frequency=df)


@dataclass(eq=False)
class DocumentTermMatrix:
    """Sparse post-by-term count matrix with row identities."""

    counts: sparse.csr_matrix
    doc_ids: tuple[str, ...]
    zero_rows: tuple[int, ...] = ()
    vocabulary: Vocabulary | None = None

    def __post_init__(self) -> None:
        self.counts = sparse.csr_matrix(self.counts)
        if self.counts.shape[0] != len(self.doc_ids):
            raise TopicModelError("doc_ids must align with count rows")
        if self.counts.nnz and self.counts.data.min() < 0:
            raise TopicModelError("counts must be nonnegative")
        if self.vocabulary is not None and len(self.vocabulary) != self.counts.shape[1]:
            raise TopicModelError("vocabulary must align with count columns")

    @property
    def n_docs(self) -> int:
        return self.counts.shape[0]

    @property
    def n_terms(self) -> int:
        return self.counts.shape[1]


def build_dtm(
    token_lists: Sequence[Sequence[str]], vocabulary: Vocabulary
) -> DocumentTermMatrix:
    """Count vocabulary terms per token list; out-of-vocabulary tokens are ignored.

    Rows follow the input order and are named ``doc0``, ``doc1``, ...
    Lists with no in-vocabulary tokens stay as zero rows and are flagged
    in ``zero_rows`` rather than dropped.
    """
    index = vocabulary.index
    data: list[int] = []
    indices: list[int] = []
    indptr = [0]
    for toks in token_lists:
        row_counts: dict[int, int] = {}
        for token, count in Counter(toks).items():
            col = index.get(token)
            if col is not None:
                row_counts[col] = count
        for col in sorted(row_counts):
            indices.append(col)
            data.append(row_counts[col])
        indptr.append(len(indices))
    counts = sparse.csr_matrix(
        (np.asarray(data, dtype=np.int64), np.asarray(indices, dtype=np.int32), indptr),
        shape=(len(token_lists), len(vocabulary)),
    )
    doc_ids = tuple(f"doc{i}" for i in range(len(token_lists)))
    row_sums = np.asarray(counts.sum(axis=1)).ravel()
    zero_rows = tuple(int(i) for i in np.flatnonzero(row_sums == 0))
    return DocumentTermMatrix(
        counts=counts, doc_ids=doc_ids, zero_rows=zero_rows, vocabulary=vocabulary
    )


@dataclass(eq=False)
class LdaModel:
    """Fitted topic model for one debate topic.

    ``beta`` holds the posterior mean term distributions, one row per
    topic, each row summing to one.  ``elbo_trace`` is the recorded bound
    per sweep and never decreases beyond float tolerance.
    """

    k: int
    beta: np.ndarray
    alpha_prior: float
    gamma_prior: float
    elbo_trace: tuple[float, ...]
    seed: int
    vocabulary: Vocabulary

    def __post_init__(self) -> None:
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.shape != (self.k, len(self.vocabulary)):
            raise TopicModelError(
                f"beta shape {self.beta.shape} does not match "
                f"k={self.k}, n_terms={len(self.vocabulary)}"
            )
        if not np.all(np.isfinite(self.beta)) or np.any(self.beta < 0):
            raise TopicModelError("beta must be finite and nonnegative")
        if np.max(np.abs(self.beta.sum(axis=1) - 1.0)) > 1e-9:
            raise TopicModelError("each beta row must sum to 1 within 1e-9")


def _dirichlet_expectation(x: np.ndarray) -> np.ndarray:
    """E[log p] for p ~ Dirichlet(x), row-wise for 2-d input."""
    if x.ndim == 1:
        return psi(x) - psi(x.sum())
    return psi(x) - psi(x.sum(axis=1))[:, np.newaxis]


def _nonzeros(counts: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
    return rows, counts.indices, counts.data.astype(float)


def _gamma_sweep(
    gamma: np.ndarray,
    counts: sparse.csr_matrix,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    exp_elog_beta: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One exact update of responsibilities and per-post Dirichlet parameters.

    Returns the new gamma, the exp E[log theta] it was computed from, and
    the per-entry responsibility normalizers.
    """
    exp_elog_theta = np.exp(_dirichlet_expectation(gamma))
    # normalizer of the token responsibilities at every nonzero (post, term)
    pnorm = (exp_elog_theta @ exp_elog_beta)[rows, cols] + 1e-100
    ratio = sparse.csr_matrix((vals / pnorm, cols, counts.indptr), shape=counts.shape)
    gamma_new = alpha + exp_elog_theta * (ratio @ exp_elog_beta.T)
    return gamma_new, exp_elog_theta, pnorm


def fit_lda(
    dtm: DocumentTermMatrix,
    k: int = 50,
    alpha_prior: float | None = None,
    gamma_prior: float = DEFAULT_GAMMA_PRIOR,
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-4,
    e_step_max_iters: int = 100,
    e_step_tol: float = 1e-3,
) -> LdaModel:
    """Fit LDA by batch coordinate-ascent mean-field variational inference.

    alpha_prior defaults to 1/k.  Each sweep runs the per-post updates to
    convergence (warm-started from the previous sweep), records the bound,
    then takes the exact topic update.  Stops when the relative bound
    change drops below ``tol`` or after ``max_iters`` sweeps.  Two runs
    with the same inputs and seed produce identical models.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise TopicModelError(f"k must be a positive integer, got {k!r}")
    if alpha_prior is None:
        alpha_prior = 1.0 / k
    if alpha_prior <= 0 or gamma_prior <= 0:
        raise TopicModelError("priors must be positive")
    if max_iters < 1:
        raise TopicModelError("max_iters must be at least 1")
    counts = dtm.counts.astype(float).tocsr()
    n_docs, n_terms = counts.shape
    if n_docs == 0 or counts.sum() == 0:
        raise TopicModelError("document-term matrix has no tokens to fit")
    if k > n_terms:
        logger.warning("k=%d exceeds the %d-term vocabulary", k, n_terms)

    alpha = float(alpha_prior)
    eta = float(gamma_prior)
    rows, cols, vals = _nonzeros(counts)
    doc_totals = np.asarray(counts.sum(axis=1)).ravel()

    rng = np.random.default_rng(seed)
    lam = rng.gamma(100.0, 0.01, (k, n_terms))
    gamma = np.full((n_docs, k), alpha) + doc_totals[:, np.newaxis] / k

    elbo_trace: list[float] = []
    for sweep in range(max_iters):
        elog_beta = _dirichlet_expectation(lam)
        exp_elog_beta = np.exp(elog_beta)

        for _ in range(e_step_max_iters):
            gamma_new, _, _ = _gamma_sweep(
                gamma, counts, rows, cols, vals, exp_elog_beta, alpha
            )
            change = float(np.abs(gamma_new - gamma).mean())
            gamma = gamma_new
            if change < e_step_tol:
                break

        # final responsibilities consistent with the converged gamma; they
        # feed both the topic statistics and the bound
        _, exp_elog_theta, pnorm = _gamma_sweep(
            gamma, counts, rows, cols, vals, exp_elog_beta, alpha
        )
        ratio = sparse.csr_matrix((vals / pnorm, cols, counts.indptr), shape=counts.shape)
        sstats = exp_elog_beta * (ratio.T @ exp_elog_theta).T

        elog_theta = _dirichlet_expectation(gamma)
        bound = float(np.sum(vals * np.log(pnorm)))
        bound += float(np.sum((alpha - gamma) * elog_theta))
        bound += float(np.sum(gammaln(gamma)) - np.sum(gammaln(gamma.sum(axis=1))))
        bound += n_docs * float(gammaln(k * alpha) - k * gammaln(alpha))
        bound += float(np.sum((eta - lam) * elog_beta))
        bound += float(np.sum(gammaln(lam)) - np.sum(gammaln(lam.sum(axis=1))))
        bound += k * float(gammaln(n_terms * eta) - n_terms * gammaln(eta))
        if not np.isfinite(bound):
            raise TopicModelError(f"ELBO became non-finite at sweep {sweep}")
        if elbo_trace and bound < elbo_trace[-1] - 1e-6:
            raise TopicModelError(
                f"ELBO decreased at sweep {sweep}: {elbo_trace[-1]!r} -> {bound!r}"
            )
        converged = bool(elbo_trace) and abs(bound - elbo_trace[-1]) < tol * abs(elbo_trace[-1])
        elbo_trace.append(bound)

        lam = eta + sstats
        if converged:
            break

    beta = lam / lam.sum(axis=1, keepdims=True)
    vocabulary = dtm.vocabulary
    if vocabulary is None:
        vocabulary = Vocabulary(
            terms=tuple(f"term{i}" for i in range(n_terms)),
            document_frequency=np.zeros(n_terms),
        )
    return LdaModel(
        k=k,
        beta=beta,
        alpha_prior=alpha,
        gamma_prior=eta,
        elbo_trace=tuple(elbo_trace),
        seed=seed,
        vocabulary=vocabulary,
    )


def infer_theta_batch(
    model: LdaModel,
    counts: sparse.spmatrix | np.ndarray,
    max_iters: int = 200,
    tol: float = 1e-6,
) -> np.ndarray:
    """Posterior mean topic proportions for each count row, topics held fixed.

    Uses the fitted beta as the term distributions.  Rows with zero count
    keep the symmetric prior and come out exactly uniform.  Rows still
    moving by ``tol`` or more after ``max_iters`` sweeps keep their last
    values, and one warning per call counts them.
    """
    counts = sparse.csr_matrix(counts).astype(float)
    if counts.shape[1] != model.beta.shape[1]:
        raise TopicModelError(
            f"count row has {counts.shape[1]} terms, model expects {model.beta.shape[1]}"
        )
    rows, cols, vals = _nonzeros(counts)
    doc_totals = np.asarray(counts.sum(axis=1)).ravel()
    alpha = model.alpha_prior
    beta = np.maximum(model.beta, 1e-300)
    gamma = np.full((counts.shape[0], model.k), alpha) + doc_totals[:, np.newaxis] / model.k
    # freeze each row at its own convergence so results do not depend on
    # which other documents share the batch
    active = np.ones(counts.shape[0], dtype=bool)
    for _ in range(max_iters):
        if not active.any():
            break
        gamma_new, _, _ = _gamma_sweep(gamma, counts, rows, cols, vals, beta, alpha)
        change = np.abs(gamma_new - gamma).mean(axis=1)
        gamma[active] = gamma_new[active]
        active &= change >= tol
    unconverged = int(active.sum())
    if unconverged:
        logger.warning(
            "%d of %d rows did not converge within max_iters=%d",
            unconverged, counts.shape[0], max_iters,
        )
    return gamma / gamma.sum(axis=1, keepdims=True)


def top_words(model: LdaModel, topic_index: int, n: int = 10) -> list[str]:
    """The n highest-probability terms of one topic; ties break by term order."""
    if not 0 <= topic_index < model.k:
        raise TopicModelError(
            f"topic_index must lie in [0, {model.k}), got {topic_index!r}"
        )
    if n < 1:
        raise TopicModelError(f"n must be positive, got {n!r}")
    row = model.beta[topic_index]
    order = np.lexsort((np.arange(row.size), -row))
    terms = model.vocabulary.terms
    return [terms[i] for i in order[: min(n, row.size)]]


def save_model(model: LdaModel, path: str | Path) -> None:
    """Serialize a model to the versioned JSON artifact format."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "k": model.k,
        "alpha_prior": model.alpha_prior,
        "gamma_prior": model.gamma_prior,
        "seed": model.seed,
        "elbo_trace": list(model.elbo_trace),
        "vocabulary": {
            "terms": list(model.vocabulary.terms),
            "document_frequency": model.vocabulary.document_frequency.tolist(),
        },
        "beta": model.beta.tolist(),
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def load_model(path: str | Path) -> LdaModel:
    """Load a serialized model; rejects unknown formats and major versions."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != MODEL_FORMAT:
        raise TopicModelError(f"{path.name}: not a {MODEL_FORMAT} artifact")
    version = str(payload.get("format_version", ""))
    if version.split(".")[0] != MODEL_FORMAT_VERSION.split(".")[0]:
        raise TopicModelError(
            f"{path.name}: unsupported format version {version!r} "
            f"(reader supports major version {MODEL_FORMAT_VERSION.split('.')[0]})"
        )
    vocabulary = Vocabulary(
        terms=tuple(payload["vocabulary"]["terms"]),
        document_frequency=np.array(payload["vocabulary"]["document_frequency"], dtype=float),
    )
    return LdaModel(
        k=int(payload["k"]),
        beta=np.array(payload["beta"], dtype=float),
        alpha_prior=float(payload["alpha_prior"]),
        gamma_prior=float(payload["gamma_prior"]),
        elbo_trace=tuple(float(x) for x in payload["elbo_trace"]),
        seed=int(payload["seed"]),
        vocabulary=vocabulary,
    )
