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

import base64
import hashlib
import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sparse
from scipy.special import gammaln, psi

from .harness.records import check_format, decode_json, read_input

logger = logging.getLogger(__name__)

MODEL_FORMAT = "tonefx-lda"
MODEL_FORMAT_VERSION = "1.0"
THETA_FORMAT = "tonefx-theta"
THETA_FORMAT_VERSION = "1.0"
DEFAULT_MIN_DF = 0.02
DEFAULT_MAX_DF = 0.80
DEFAULT_GAMMA_PRIOR = 0.01
# fit_lda's per-post updates in each sweep: at most this many, stopping
# once the mean change of the Dirichlet parameters drops below the tol
_E_STEP_MAX_ITERS = 100
_E_STEP_TOL = 1e-3
# infer_theta_batch's sweeps, and the change below which a row freezes
_THETA_MAX_ITERS = 200
_THETA_TOL = 1e-6

_TOKEN_RE = re.compile(r"[a-z]+(?:'[a-z]+)*")
# UTF-8 bytes of lowered text to form characters: a-z and "'" stay, every
# other byte, each byte of a non-ASCII character included, becomes a space
_FORM_BYTES = bytes(b if b == 39 or 97 <= b <= 122 else 32 for b in range(256))
_VOWELS = "aeiou"


class TopicModelError(ValueError):
    """Invalid input to vocabulary construction or topic model fitting."""


class ModelFileError(TopicModelError):
    """A saved topic model or theta file that cannot be read or does not hold one."""


def _shipped_entries(name: str) -> list[str]:
    """The lowercased entries of a shipped word list, one per line, '#' for comments."""
    text = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    lines = (raw.strip() for raw in text.splitlines())
    return [line.lower() for line in lines if line and not line.startswith("#")]


# the tokenizer's stop words and its lemma exception table ('token<TAB>base' lines)
_STOPWORDS = frozenset(_shipped_entries("stopwords.txt"))
_LEMMA_EXCEPTIONS = dict(line.split() for line in _shipped_entries("lemma_exceptions.txt"))
# digest of both lists, part of every topic cache key; its payload is fixed,
# so a cache entry stays valid until one of the lists changes
TOKENIZER_DIGEST = hashlib.sha256(
    json.dumps(
        {"stopwords": sorted(_STOPWORDS), "exceptions": sorted(_LEMMA_EXCEPTIONS.items())},
        sort_keys=True,
    ).encode("utf-8")
).hexdigest()


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


def normalize_form(raw: str) -> str:
    """The token of one ``split_words`` form, or "" for a stop word.

    A final "'s" is dropped first ("dog's" -> "dog", "it's" -> "it"),
    so no term ends with an apostrophe.  Stop words are the shipped
    list; every other form is lemmatized with the shipped exception
    table.  Nothing is memoized here.
    """
    if raw.endswith("'s"):
        raw = raw[:-2]
    return "" if raw in _STOPWORDS else lemmatize_token(raw, _LEMMA_EXCEPTIONS)


def split_words(text: str) -> list[str]:
    """The word forms of a text: ``_TOKEN_RE.findall(text.lower())``.

    After lowercasing, a form is a run of ``a``-``z`` with single
    apostrophes between letters; every other character separates forms.
    The form characters are all ASCII, so mapping every other byte of
    the UTF-8 text (``surrogatepass`` keeps lone surrogates) to a space
    with one ``bytes.translate`` keeps the maximal runs of letters and
    apostrophes, and ``str.split`` returns them.  A run with no
    apostrophe at either end and none doubled is exactly one form.  A
    text that holds another run ("'quoted'", "rock''n") is split by the
    pattern itself, so every text gets the pattern's list.
    """
    lowered = text.lower()
    kept = lowered.encode("utf-8", "surrogatepass").translate(_FORM_BYTES).decode("ascii")
    if "'" in kept and (
        "''" in kept or " '" in kept or "' " in kept or kept[0] == "'" or kept[-1] == "'"
    ):
        return _TOKEN_RE.findall(lowered)
    return kept.split()


class FormIndex(dict):
    """Raw ``split_words`` forms and their ids, in first-seen order.

    Looking up a form the index has not met gives it the next id, so
    ``list(index)`` names every id.
    """

    def __missing__(self, form: str) -> int:
        id_ = self[form] = len(self)
        return id_

    def split(self, text: str) -> np.ndarray:
        """The ``split_words`` forms of a text as ids."""
        words = split_words(text)
        return np.fromiter(map(self.__getitem__, words), dtype=np.int32, count=len(words))


@dataclass(frozen=True)
class Tokenizer:
    """Text-to-token mapping of the topic models and confounders.

    Splits the text with ``split_words`` and normalizes each form with
    ``normalize_form``, dropping stop words; it keeps no memo.  A run
    gets the same tokens from ``harness.pipeline.PostForms``, which
    splits each post once and normalizes each distinct form once.
    """

    def __call__(self, text: str) -> list[str]:
        return [t for t in map(normalize_form, split_words(text)) if t]


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


@dataclass(eq=False)
class TermCounts:
    """Each post's distinct terms and how often it holds each, from one sort.

    One entry per distinct (post, term id) pair, ordered by post, then by
    term id: ``doc`` is the post's row, ``term`` the term id and
    ``count`` its number of occurrences.  ``terms`` names every term id,
    and ``n_docs`` counts the posts, those with no term included.
    """

    terms: Sequence[str]
    n_docs: int
    doc: np.ndarray
    term: np.ndarray
    count: np.ndarray


def count_terms(
    docs: Sequence[np.ndarray], terms: Sequence[str], term_of: np.ndarray | None = None
) -> TermCounts:
    """Count the term ids of each post, one integer array per post.

    ``terms[i]`` names term id i, and a negative id is a dropped word.
    With ``term_of``, the arrays hold ids into it, and ``term_of[id]`` is
    the term id.  All posts are counted by one sort of their (post, term
    id) keys, so no n x V array is ever built.
    """
    ids = np.concatenate(docs) if docs else np.empty(0, dtype=np.int32)
    if term_of is not None:
        ids = term_of[ids]
    width = max(len(terms), 1)
    # key = post * width + term id, in the narrowest type that holds them all
    dtype = np.int32 if len(docs) * width < 2**31 else np.int64
    keys = np.arange(0, len(docs) * width, width, dtype=dtype)
    keys = np.repeat(keys, [len(doc) for doc in docs])
    keys += ids
    dropped = ids < 0
    del ids
    if dropped.any():
        keys = keys[~dropped]
    keys.sort()
    # the first entry of each run of equal keys
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    count = np.diff(starts, append=len(keys))
    doc, term = np.divmod(keys[starts], width)
    return TermCounts(terms=terms, n_docs=len(docs), doc=doc, term=term, count=count)


def build_vocabulary(
    counts: TermCounts,
    min_df: float = DEFAULT_MIN_DF,
    max_df: float = DEFAULT_MAX_DF,
) -> Vocabulary:
    """Collect terms whose document frequency lies strictly inside (min_df, max_df).

    Document frequency is the fraction of the counted posts containing
    the term at least once.  Both bounds are exclusive, so terms at
    exactly min_df or max_df are dropped.  Terms are sorted, which fixes
    column order everywhere downstream.
    """
    if not 0.0 <= min_df < max_df <= 1.0:
        raise TopicModelError(
            f"need 0 <= min_df < max_df <= 1, got min_df={min_df!r} max_df={max_df!r}"
        )
    if counts.n_docs == 0:
        raise TopicModelError("cannot build a vocabulary from zero posts")
    df = np.bincount(counts.term, minlength=len(counts.terms)) / counts.n_docs
    terms = counts.terms
    kept = sorted(np.flatnonzero((min_df < df) & (df < max_df)).tolist(), key=terms.__getitem__)
    if not kept:
        raise TopicModelError(
            f"no terms have document frequency strictly inside ({min_df:g}, {max_df:g}); "
            "adjust the thresholds for this corpus"
        )
    return Vocabulary(terms=tuple(terms[i] for i in kept), document_frequency=df[kept])


@dataclass(eq=False)
class DocumentTermMatrix:
    """Sparse post-by-term count matrix with row identities."""

    counts: sparse.csr_matrix
    doc_ids: tuple[str, ...]
    vocabulary: Vocabulary
    zero_rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.counts = sparse.csr_matrix(self.counts)
        if self.counts.shape[0] != len(self.doc_ids):
            raise TopicModelError("doc_ids must align with count rows")
        if self.counts.nnz and self.counts.data.min() < 0:
            raise TopicModelError("counts must be nonnegative")
        if len(self.vocabulary) != self.counts.shape[1]:
            raise TopicModelError("vocabulary must align with count columns")

    @property
    def n_docs(self) -> int:
        return self.counts.shape[0]


def build_dtm(counts: TermCounts, vocabulary: Vocabulary) -> DocumentTermMatrix:
    """The counts of the vocabulary's terms per post; other terms are ignored.

    Rows follow the counted posts' order and are named ``doc0``,
    ``doc1``, ...  Posts with no vocabulary term stay as zero rows and are
    flagged in ``zero_rows`` rather than dropped.
    """
    index = vocabulary.index
    columns = np.array([index.get(term, -1) for term in counts.terms], dtype=np.intp)
    column = columns[counts.term]
    kept = column >= 0
    doc, column = counts.doc[kept], column[kept]
    # within a post, term ids and columns sort differently
    order = np.argsort(doc.astype(np.int64) * len(vocabulary) + column)
    indptr = np.zeros(counts.n_docs + 1, dtype=np.intp)
    np.cumsum(np.bincount(doc, minlength=counts.n_docs), out=indptr[1:])
    matrix = sparse.csr_matrix(
        (
            counts.count[kept][order].astype(np.int64),
            column[order].astype(np.int32),
            indptr,
        ),
        shape=(counts.n_docs, len(vocabulary)),
    )
    zero_rows = tuple(np.flatnonzero(np.diff(indptr) == 0).tolist())
    return DocumentTermMatrix(
        counts=matrix,
        doc_ids=tuple(f"doc{i}" for i in range(counts.n_docs)),
        zero_rows=zero_rows,
        vocabulary=vocabulary,
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
    """E[log p] for p ~ Dirichlet(x), row by row."""
    return psi(x) - psi(x.sum(axis=1))[:, np.newaxis]


def _exp_elog_theta(gamma: np.ndarray) -> np.ndarray:
    """exp E[log theta] per row of gamma; each row's bits depend on that row alone."""
    out = _dirichlet_expectation(gamma)
    return np.exp(out, out=out)


@dataclass(eq=False)
class _Nonzeros:
    """The nonzero entries of some rows of one count matrix.

    ``rows`` picks the indexed rows of the batch: ``slice(None)`` for
    all of them, or their positions in ascending order.  ``vals`` holds
    their counts as floats in CSR order.  ``product`` is the row-major
    (n_docs, n_terms) buffer, for the whole batch, that every sweep
    writes its dense normalizer product into, and ``flat`` holds each
    entry's position in it, so the responsibility normalizers are
    gathered with one ``take``.  ``ratio`` is the CSR matrix of the
    indexed rows; every ``_normalizers`` call overwrites its data with
    count / normalizer, so it holds the ratios of the latest sweep.
    """

    rows: slice | np.ndarray
    vals: np.ndarray
    flat: np.ndarray
    product: np.ndarray
    ratio: sparse.csr_matrix


def _nonzeros(counts: sparse.csr_matrix) -> _Nonzeros:
    n_docs, n_terms = counts.shape
    flat = np.repeat(np.arange(n_docs) * n_terms, np.diff(counts.indptr))
    flat += counts.indices
    vals = counts.data.astype(float)
    ratio = sparse.csr_matrix(
        (np.empty_like(vals), counts.indices, counts.indptr), shape=counts.shape
    )
    return _Nonzeros(
        rows=slice(None),
        vals=vals,
        flat=flat,
        product=np.empty(counts.shape),
        ratio=ratio,
    )


def _narrow(nonzeros: _Nonzeros, keep: np.ndarray) -> None:
    """Keep only the indexed rows where ``keep`` is true, in place.

    Each array is dropped as soon as its replacement exists, and the
    ratios reuse the front of their old buffer, so narrowing needs no
    more memory than a sweep.
    """
    ratio = nonzeros.ratio
    per_row = np.diff(ratio.indptr)
    entries = np.repeat(keep, per_row)
    nonzeros.rows = np.arange(len(nonzeros.product))[nonzeros.rows][keep]
    nonzeros.vals = nonzeros.vals[entries]
    nonzeros.flat = nonzeros.flat[entries]
    indptr = np.zeros(len(nonzeros.rows) + 1, dtype=ratio.indptr.dtype)
    np.cumsum(per_row[keep], out=indptr[1:])
    nonzeros.ratio = sparse.csr_matrix(
        (ratio.data[: len(nonzeros.vals)], ratio.indices[entries], indptr),
        shape=(len(nonzeros.rows), ratio.shape[1]),
    )


def _normalizers(
    exp_elog_theta: np.ndarray, nonzeros: _Nonzeros, exp_elog_beta: np.ndarray
) -> np.ndarray:
    """The token responsibility normalizers at the indexed rows' nonzeros.

    ``exp_elog_theta`` spans the whole batch, and so does the dense
    product: a BLAS product of a row subset may differ in its last bits
    from the same rows of the whole product, so the product alone keeps
    the batch's shape, and the normalizers do not depend on which rows
    are indexed.  The ratios count / normalizer are left in
    ``nonzeros.ratio``.
    """
    product = np.matmul(exp_elog_theta, exp_elog_beta, out=nonzeros.product)
    pnorm = product.take(nonzeros.flat)
    pnorm += 1e-100
    np.divide(nonzeros.vals, pnorm, out=nonzeros.ratio.data)
    return pnorm


def _gamma_sweep(
    exp_elog_theta: np.ndarray,
    nonzeros: _Nonzeros,
    exp_elog_beta: np.ndarray,
    exp_elog_beta_t: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """One exact update of the indexed rows' Dirichlet parameters.

    ``exp_elog_theta`` is exp E[log theta] of the whole batch, and
    ``exp_elog_beta_t`` is ``exp_elog_beta.T`` made C-contiguous by the
    caller, once for all sweeps that share it.  Returns the new gamma of
    the rows that ``nonzeros`` indexes; rows it leaves out are not swept.
    Only the dense normalizer product spans the batch (see
    ``_normalizers``); every other step is row-local, so a row's update
    has the same bits whichever rows are indexed.  The arithmetic and its
    order are fixed, so a sweep gives the same bits for the same inputs
    at a fixed BLAS thread count; a different thread count may move the
    dense product in its last bits.  The pipeline runs every sweep on one
    BLAS thread, so its topic models and reports do not depend on the
    machine's count.
    """
    _normalizers(exp_elog_theta, nonzeros, exp_elog_beta)
    gamma_new = nonzeros.ratio @ exp_elog_beta_t
    gamma_new *= exp_elog_theta[nonzeros.rows]
    gamma_new += alpha
    return gamma_new


def elbo_converged(elbo_trace: Sequence[float], tol: float) -> bool:
    """``fit_lda``'s stopping test: the last sweep moved the bound by less than ``tol``, relative."""
    return len(elbo_trace) > 1 and abs(elbo_trace[-1] - elbo_trace[-2]) < tol * abs(elbo_trace[-2])


def fit_lda(
    dtm: DocumentTermMatrix,
    k: int = 50,
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-4,
) -> LdaModel:
    """Fit LDA by batch coordinate-ascent mean-field variational inference.

    The priors are alpha_prior = 1/k and ``DEFAULT_GAMMA_PRIOR``.  Each
    sweep runs the per-post updates to convergence (warm-started from the
    previous sweep), records the bound, then takes the exact topic update.
    Stops when the relative bound change drops below ``tol`` or after
    ``max_iters`` sweeps; a model that stopped at ``max_iters`` has
    ``elbo_converged(model.elbo_trace, tol)`` false, and
    ``fit_topic_models`` logs a warning for it.  Two runs with the same
    inputs and seed produce identical models.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise TopicModelError(f"k must be a positive integer, got {k!r}")
    if max_iters < 1:
        raise TopicModelError("max_iters must be at least 1")
    counts = dtm.counts
    n_docs, n_terms = counts.shape
    if n_docs == 0 or counts.sum() == 0:
        raise TopicModelError("document-term matrix has no tokens to fit")

    alpha = 1.0 / k
    eta = DEFAULT_GAMMA_PRIOR
    nonzeros = _nonzeros(counts)
    doc_totals = np.asarray(counts.sum(axis=1)).ravel()

    rng = np.random.default_rng(seed)
    lam = rng.gamma(100.0, 0.01, (k, n_terms))
    gamma = np.full((n_docs, k), alpha) + doc_totals[:, np.newaxis] / k
    exp_elog_theta = _exp_elog_theta(gamma)

    elbo_trace: list[float] = []
    for sweep in range(max_iters):
        elog_beta = _dirichlet_expectation(lam)
        exp_elog_beta = np.exp(elog_beta)
        exp_elog_beta_t = np.ascontiguousarray(exp_elog_beta.T)

        # the first step reuses the previous sweep's final exp E[log theta]
        for step in range(_E_STEP_MAX_ITERS):
            if step:
                exp_elog_theta = _exp_elog_theta(gamma)
            gamma_new = _gamma_sweep(
                exp_elog_theta, nonzeros, exp_elog_beta, exp_elog_beta_t, alpha
            )
            change = float(np.abs(gamma_new - gamma).mean())
            gamma = gamma_new
            if change < _E_STEP_TOL:
                break

        # final responsibilities consistent with the converged gamma; they
        # feed both the topic statistics and the bound
        elog_theta = _dirichlet_expectation(gamma)
        exp_elog_theta = np.exp(elog_theta)
        pnorm = _normalizers(exp_elog_theta, nonzeros, exp_elog_beta)
        sstats = exp_elog_beta * (nonzeros.ratio.T @ exp_elog_theta).T

        bound = float(np.sum(nonzeros.vals * np.log(pnorm)))
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
        elbo_trace.append(bound)

        lam = eta + sstats
        if elbo_converged(elbo_trace, tol):
            break

    beta = lam / lam.sum(axis=1, keepdims=True)
    return LdaModel(
        k=k,
        beta=beta,
        alpha_prior=alpha,
        gamma_prior=eta,
        elbo_trace=tuple(elbo_trace),
        seed=seed,
        vocabulary=dtm.vocabulary,
    )


def log_unconverged_theta(unconverged: int, rows: int, label: str = "") -> None:
    """The one warning of a theta batch with rows that did not converge."""
    logger.warning(
        "%s%d of %d rows did not converge within max_iters=%d",
        f"{label}: " if label else "", unconverged, rows, _THETA_MAX_ITERS,
    )


def infer_theta_batch(
    model: LdaModel,
    counts: sparse.spmatrix | np.ndarray,
    *,
    converged: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior mean topic proportions for each count row, topics held fixed.

    Uses the fitted beta as the term distributions.  Rows with zero count
    keep the symmetric prior and come out exactly uniform.  Rows still
    moving by ``_THETA_TOL`` or more after ``_THETA_MAX_ITERS`` sweeps
    keep their last values.  A ``converged`` bool array, one entry per
    row, is set to whether each row converged, and a caller that passes
    one logs the warning about the rest itself (``log_unconverged_theta``
    words it), so batches run at once on threads log in the caller's
    order; without one, this call logs one warning that counts them.
    The nonzero index and the transposed beta are built once per call
    and shared by its sweeps.
    A row that has converged is frozen and not swept again.  The sweeps
    run over the whole batch until at most three quarters of the rows
    still move; from then on they index only the moving rows, and index
    anew each time that set shrinks to three quarters of the indexed
    rows, so no sweep pays for many frozen rows or for indexing every
    time.  Only the dense normalizer product spans the whole batch, so
    a row's bits do not depend on which rows are still active.  They can
    depend on the batch's row count, though: the product's last bits
    move with its shape even on one BLAS thread, so a row inferred alone
    may differ in its last bits from the same row inferred in a batch.
    Results are bit-for-bit reproducible at a fixed BLAS thread count; a
    different count may move them in their last bits, because the dense
    sweep product is then split differently.  The pipeline calls this on
    one BLAS thread, whatever the caller's count.
    """
    counts = sparse.csr_matrix(counts)
    if counts.shape[1] != model.beta.shape[1]:
        raise TopicModelError(
            f"count row has {counts.shape[1]} terms, model expects {model.beta.shape[1]}"
        )
    nonzeros = _nonzeros(counts)
    doc_totals = np.asarray(counts.sum(axis=1)).ravel()
    alpha = model.alpha_prior
    beta = np.maximum(model.beta, 1e-300)
    beta_t = np.ascontiguousarray(beta.T)
    gamma = np.full((counts.shape[0], model.k), alpha) + doc_totals[:, np.newaxis] / model.k
    exp_elog_theta = _exp_elog_theta(gamma)
    # freeze each row at its own convergence, so a row's bits do not depend
    # on which rows are still active (the batch's row count can move them)
    active = np.ones(counts.shape[0], dtype=bool)
    indexed = counts.shape[0]
    for _ in range(_THETA_MAX_ITERS):
        n_active = np.count_nonzero(active)
        if not n_active:
            break
        # sweep only the active rows once a quarter of the indexed ones froze
        if 4 * n_active <= 3 * indexed:
            _narrow(nonzeros, active[nonzeros.rows])
            indexed = n_active
        rows = nonzeros.rows
        gamma_new = _gamma_sweep(exp_elog_theta, nonzeros, beta, beta_t, alpha)
        gamma_old = gamma[rows]
        change = np.abs(gamma_new - gamma_old).mean(axis=1)
        moving = active[rows]
        # indexed rows that froze since the index was built keep their gamma
        np.copyto(gamma_new, gamma_old, where=~moving[:, np.newaxis])
        gamma[rows] = gamma_new
        exp_elog_theta[rows] = _exp_elog_theta(gamma_new)
        active[rows] = moving & (change >= _THETA_TOL)
    if converged is not None:
        np.logical_not(active, out=converged)
    elif active.any():
        log_unconverged_theta(int(active.sum()), counts.shape[0])
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
    """Serialize a model to the versioned JSON artifact format.

    The bytes are those of ``json.dump`` on the whole payload, but each
    ``beta`` row is encoded on its own by the C encoder, which is faster
    than ``json.dump``'s pure-Python one and never holds the whole
    document in memory.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = json.dumps(
        {
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
        }
    )
    with path.open("w", encoding="utf-8") as handle:
        # "beta" is the payload's last key
        handle.write(head[:-1] + ', "beta": [')
        for i, row in enumerate(model.beta):
            handle.write((", " if i else "") + json.dumps(row.tolist()))
        handle.write("]}\n")


def _json_field(payload: dict, key: str, kinds: str, ndim: int = 0):
    """payload[key] if it is a JSON scalar (ndim 0) or ndim-deep array of numpy dtype
    kind in ``kinds``: i integers, f other numbers, U strings (not true, false, null)."""
    value = np.array(payload[key])
    if value.dtype.kind not in kinds or value.ndim != ndim:
        raise TypeError(f"field {key!r} has the wrong JSON type")
    return value.tolist()


def load_model(path: str | Path) -> LdaModel:
    """Load a serialized model.  A missing file raises FileNotFoundError; any other fault,
    from an unreadable path to a mistyped field or empty trace, is a ModelFileError naming it."""
    path = Path(path)
    try:
        payload = decode_json(read_input(path))
        check_format(payload, MODEL_FORMAT, "format_version", MODEL_FORMAT_VERSION)
        if not _json_field(payload, "elbo_trace", "if", 1):
            raise ValueError("field 'elbo_trace' is empty")
        vocabulary = payload["vocabulary"]
        return LdaModel(
            k=_json_field(payload, "k", "i"),
            beta=_json_field(payload, "beta", "if", 2),
            alpha_prior=float(_json_field(payload, "alpha_prior", "if")),
            gamma_prior=float(_json_field(payload, "gamma_prior", "if")),
            elbo_trace=tuple(map(float, _json_field(payload, "elbo_trace", "if", 1))),
            seed=_json_field(payload, "seed", "i"),
            vocabulary=Vocabulary(
                terms=tuple(_json_field(vocabulary, "terms", "U", 1)),
                document_frequency=_json_field(vocabulary, "document_frequency", "if", 1),
            ),
        )
    except KeyError as exc:
        raise ModelFileError(f"{path.name}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{path.name}: {exc}") from exc


def save_theta(
    path: str | Path, post_ids: Sequence[str], theta: np.ndarray, unconverged: int
) -> None:
    """Write one theta batch: its post ids, shape, unconverged row count and values.

    The values are the base64 of their little-endian float64 bytes, so
    ``load_theta`` gives them back bit for bit.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": THETA_FORMAT,
        "format_version": THETA_FORMAT_VERSION,
        "post_ids": list(post_ids),
        "shape": list(theta.shape),
        "unconverged": unconverged,
        "theta": base64.b64encode(np.ascontiguousarray(theta, dtype="<f8")).decode("ascii"),
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_theta(path: str | Path, post_ids: Sequence[str], k: int) -> tuple[np.ndarray, int]:
    """The theta and unconverged row count of a batch written by ``save_theta``.

    The file must hold exactly ``post_ids``, in order, with ``k`` topics.
    A missing file raises FileNotFoundError; any other fault, a mismatch
    with the batch included, is a ModelFileError naming the file.
    """
    path = Path(path)
    try:
        payload = decode_json(read_input(path))
        check_format(payload, THETA_FORMAT, "format_version", THETA_FORMAT_VERSION)
        if _json_field(payload, "post_ids", "U", 1) != list(post_ids):
            raise ValueError("its post ids are not the batch's")
        if _json_field(payload, "shape", "i", 1) != [len(post_ids), k]:
            raise ValueError(f"its shape is not ({len(post_ids)}, {k})")
        unconverged = _json_field(payload, "unconverged", "i")
        if not 0 <= unconverged <= len(post_ids):
            raise ValueError(f"unconverged count {unconverged} out of range")
        values = base64.b64decode(_json_field(payload, "theta", "U"), validate=True)
        if len(values) != 8 * len(post_ids) * k:
            raise ValueError(f"theta holds {len(values)} bytes, not {8 * len(post_ids) * k}")
        theta = np.frombuffer(values, dtype="<f8").astype(float).reshape(len(post_ids), k)
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta is not finite")
        return theta, unconverged
    except KeyError as exc:
        raise ModelFileError(f"{path.name}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{path.name}: {exc}") from exc
