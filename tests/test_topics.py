"""Tokenization, vocabulary, and the variational topic model."""

import logging
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.special import gammaln

from tonefx import topics
from tonefx.topics import (
    _TOKEN_RE,
    DEFAULT_GAMMA_PRIOR,
    LdaModel,
    ModelFileError,
    TopicModelError,
    Tokenizer,
    Vocabulary,
    _dirichlet_expectation,
    build_dtm,
    build_vocabulary,
    count_terms,
    fit_lda,
    infer_theta_batch,
    lemmatize_token,
    load_model,
    load_theta,
    normalize_form,
    save_model,
    save_theta,
    split_words,
    top_words,
)


# ------------------------------------------------------------- tokenizer


def test_default_tokenizer_frozen_example():
    assert Tokenizer()("The guns were firing.") == ["gun", "fire"]


def test_surface_tokenizer_keeps_everything():
    # the lexicon's surface tokens: no stop word dropped, nothing lemmatized
    assert split_words("The GUNS were firing.") == [
        "the", "guns", "were", "firing",
    ]


@pytest.mark.parametrize(
    "token,base",
    [
        ("cities", "city"),
        ("classes", "class"),
        ("boxes", "box"),
        ("guns", "gun"),
        ("running", "run"),
        ("firing", "fire"),
        ("hoped", "hope"),
        ("trusted", "trust"),
        ("is", "is"),       # too short for the -s rule
        ("bus", "bus"),     # -us exemption
        ("miss", "miss"),   # -ss exemption
    ],
)
def test_lemmatizer_suffix_rules(token, base):
    assert lemmatize_token(token) == base


def _reference_tokens(text: str) -> list[str]:
    """The tokenizer's output rebuilt one occurrence at a time, with no memo."""
    raws = (raw[:-2] if raw.endswith("'s") else raw for raw in _TOKEN_RE.findall(text.lower()))
    return [
        lemmatize_token(raw, topics._LEMMA_EXCEPTIONS)
        for raw in raws
        if raw not in topics._STOPWORDS
    ]


_WORDS = st.sampled_from(
    sorted(topics._STOPWORDS)[:15]
    + sorted(topics._LEMMA_EXCEPTIONS)[:15]
    + ["running", "parties", "boxes", "classes", "hoped", "falling", "fired", "bus",
       "is", "don't", "it's", "gone", "went", "the", "GUNS"]
) | st.text(alphabet="abeginorst'", max_size=8)
_TEXTS = st.lists(
    st.lists(_WORDS, max_size=12).map(lambda words: " ".join(words) + "."),
    min_size=1, max_size=5,
)


@given(_TEXTS)
def test_tokenizer_matches_per_token_reference(texts):
    tokenizer = Tokenizer()
    assert [tokenizer(text) for text in texts] == [_reference_tokens(text) for text in texts]


def test_lemmatizer_exception_table_wins():
    assert lemmatize_token("went", {"went": "go"}) == "go"
    assert Tokenizer()("she went home") == ["go", "home"]


def test_tokenizer_drops_non_alphabetic():
    # digits and punctuation separate tokens rather than joining them
    assert split_words("a1b 42 -- don't") == ["a", "b", "don't"]
    assert split_words("42 --") == []


# every character that str.split() treats as whitespace
_SPACES = [c for c in map(chr, range(0x110000)) if c.isspace()]
# letters, apostrophes at word edges and doubled, separators, and characters
# whose lowercase form is ASCII (Kelvin sign), longer (İ) or not a letter
_SPLIT_PIECES = st.lists(
    st.sampled_from(list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    | st.sampled_from(["'", "''", "'s", "s'", "'a'", "a''b"])
    | st.sampled_from(list("0123456789_!\"#$%&()*+,-./:;<=>?@[\\]^`{|}~") + _SPACES)
    | st.sampled_from(["é", "ß", "İ", "\u212a", "ﬁ", "’", "中文", "😀", "\u0307", "\ud800"]),
    max_size=60,
).map("".join)


@settings(max_examples=500)
@given(st.text(max_size=200) | _SPLIT_PIECES)
def test_split_words_is_the_token_pattern(text):
    assert split_words(text) == _TOKEN_RE.findall(text.lower())


def test_split_words_is_the_token_pattern_for_every_code_point():
    for start in range(0, 0x110000, 4096):
        chars = map(chr, range(start, start + 4096))
        text = "".join(f"ab{c}cd'e{c} {c}'x{c}y'{c}" for c in chars)
        assert split_words(text) == _TOKEN_RE.findall(text.lower()), hex(start)


def test_final_s_is_dropped_before_the_stop_word_test():
    # "it" is a stop word; "don't" keeps its inner apostrophe
    assert [normalize_form(w) for w in ("dog's", "children's", "it's", "don't")] == [
        "dog", "child", "", "don't",
    ]


def test_tokenizer_fingerprint_tracks_config():
    # the digest of the shipped stop words and lemma exceptions is part of
    # every topic cache key; an edit of either list must change this value
    # on purpose, since it invalidates every cached topic model
    assert topics.TOKENIZER_DIGEST == (
        "d3756946d8616d9e6e22d123833bc03f04fa0d42496a7d106fc4149e31996066"
    )


@given(st.text(max_size=300))
def test_tokenizer_output_is_lowercase_alpha(text):
    for token in Tokenizer()(text):
        assert token == token.lower()
        assert all(c.isalpha() or c == "'" for c in token)
        assert not token.endswith("'")


# ------------------------------------------------------------ vocabulary

DOCS = [
    text.split()
    for text in (
        "gun gun crime",
        "gun crime law",
        "law law courts",
        "courts gun law",
        "crime courts law",
    )
]


def _counted(docs):
    """The term counts of string token lists, each distinct token one term id."""
    terms: dict[str, int] = {}
    ids = [np.array([terms.setdefault(t, len(terms)) for t in doc], dtype=np.int32) for doc in docs]
    return count_terms(ids, list(terms))


def test_build_vocabulary_exclusive_bounds():
    # df: gun 3/5, crime 3/5, law 4/5, courts 3/5
    vocab = build_vocabulary(_counted(DOCS), min_df=0.0, max_df=0.8)
    assert vocab.terms == ("courts", "crime", "gun")  # law at exactly 0.8 dropped
    vocab = build_vocabulary(_counted(DOCS), min_df=0.6, max_df=0.9)
    assert vocab.terms == ("law",)  # the 0.6 terms sit exactly on the bound


def test_build_vocabulary_rejects_bad_inputs():
    with pytest.raises(TopicModelError, match="min_df"):
        build_vocabulary(_counted(DOCS), min_df=0.5, max_df=0.5)
    with pytest.raises(TopicModelError, match="zero posts"):
        build_vocabulary(_counted([]))
    with pytest.raises(TopicModelError, match="no terms"):
        build_vocabulary(_counted(DOCS), min_df=0.99, max_df=1.0)


def test_vocabulary_terms_sorted_and_unique():
    vocab = build_vocabulary(_counted(DOCS), min_df=0.0, max_df=1.0)
    assert list(vocab.terms) == sorted(set(vocab.terms))
    assert vocab.index["courts"] == 0
    with pytest.raises(TopicModelError, match="unique"):
        Vocabulary(terms=("a", "a"), document_frequency=np.array([0.5, 0.5]))


def test_build_dtm_counts_and_zero_rows():
    counted = _counted(DOCS + [["nothing", "known", "here"]])
    vocab = build_vocabulary(_counted(DOCS), min_df=0.0, max_df=1.0)
    dtm = build_dtm(counted, vocab)
    assert dtm.n_docs == 6 and dtm.counts.shape[1] == 4
    dense = dtm.counts.toarray()
    assert dense[0, vocab.index["gun"]] == 2
    assert dense[0, vocab.index["courts"]] == 0
    assert dtm.zero_rows == (5,)
    assert dense[5].sum() == 0


def test_count_terms_skips_negative_ids():
    docs = [np.array([1, -1, 1, 0]), np.array([-1]), np.array([], dtype=int)]
    counted = count_terms(docs, ["a", "b"])
    assert counted.n_docs == 3
    assert (counted.doc.tolist(), counted.term.tolist(), counted.count.tolist()) == (
        [0, 0], [0, 1], [1, 2],
    )


@given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=15), min_size=1, max_size=6))
def test_build_dtm_matches_per_occurrence_count(docs):
    vocab = Vocabulary(terms=("a", "c", "e"), document_frequency=np.full(3, 0.5))
    dense = build_dtm(_counted(docs), vocab).counts.toarray()
    expected = np.zeros((len(docs), 3), dtype=np.int64)
    for i, doc in enumerate(docs):
        for token in doc:
            if token in vocab.index:
                expected[i, vocab.index[token]] += 1
    np.testing.assert_array_equal(dense, expected)


# ------------------------------------------------------------ lda fitting


def _dtm_from_counts(counts, vocab):
    from tonefx.topics import DocumentTermMatrix

    return DocumentTermMatrix(
        counts=sparse.csr_matrix(counts),
        doc_ids=tuple(f"doc{i}" for i in range(counts.shape[0])),
        vocabulary=vocab,
    )


def _random_dtm(n_docs=40, n_terms=25, seed=0, length=30):
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(length, rng.dirichlet(np.ones(n_terms)), size=n_docs)
    vocab = Vocabulary(
        terms=tuple(f"w{i:02d}" for i in range(n_terms)),
        document_frequency=np.full(n_terms, 0.5),
    )
    return _dtm_from_counts(counts, vocab)


def test_fit_lda_deterministic():
    dtm = _random_dtm()
    a = fit_lda(dtm, k=3, seed=7, max_iters=30)
    b = fit_lda(dtm, k=3, seed=7, max_iters=30)
    np.testing.assert_array_equal(a.beta, b.beta)
    assert a.elbo_trace == b.elbo_trace
    c = fit_lda(dtm, k=3, seed=8, max_iters=30)
    assert not np.array_equal(a.beta, c.beta)


def test_fit_lda_elbo_nondecreasing():
    model = fit_lda(_random_dtm(seed=3), k=4, seed=0, max_iters=40)
    trace = np.array(model.elbo_trace)
    assert np.all(np.diff(trace) >= -1e-6)


def test_fit_lda_rows_are_distributions():
    model = fit_lda(_random_dtm(seed=1), k=3, seed=0, max_iters=20)
    assert model.beta.shape == (3, 25)
    np.testing.assert_allclose(model.beta.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(model.beta >= 0)


def test_fit_lda_k1_matches_corpus_distribution():
    rng = np.random.default_rng(0)
    counts = rng.multinomial(200, np.arange(1, 11) / 55.0, size=50)
    vocab = Vocabulary(
        terms=tuple(f"w{i}" for i in range(10)), document_frequency=np.full(10, 0.5)
    )
    model = fit_lda(_dtm_from_counts(counts, vocab), k=1, seed=0, max_iters=10)
    empirical = counts.sum(axis=0) / counts.sum()
    np.testing.assert_allclose(model.beta[0], empirical, atol=5e-3)
    theta = infer_theta_batch(model, counts[:4])
    np.testing.assert_allclose(theta, 1.0)


def test_fit_lda_rejects_bad_inputs():
    dtm = _random_dtm()
    with pytest.raises(TopicModelError, match="positive integer"):
        fit_lda(dtm, k=0)
    empty = _dtm_from_counts(
        np.zeros((3, 25), dtype=int),
        Vocabulary(
            terms=tuple(f"w{i:02d}" for i in range(25)),
            document_frequency=np.full(25, 0.5),
        ),
    )
    with pytest.raises(TopicModelError, match="no tokens"):
        fit_lda(empty, k=2)


# ------------------------------------------------------------- inference


def test_infer_theta_batch_invariant_to_batch_composition():
    # pins only this shape (40 rows, k = 3, 25 terms): in general the
    # whole-batch product can move a row's last bits when the batch's row
    # count changes, so a row alone need not match the same row in a batch
    dtm = _random_dtm(seed=5)
    model = fit_lda(dtm, k=3, seed=0, max_iters=30)
    rows = dtm.counts.toarray()
    whole = infer_theta_batch(model, rows)
    alone = infer_theta_batch(model, rows[7:8])
    np.testing.assert_array_equal(whole[7], alone[0])
    shuffled = infer_theta_batch(model, rows[::-1])
    np.testing.assert_array_equal(shuffled[::-1], whole)


def test_infer_theta_zero_count_doc_is_uniform():
    dtm = _random_dtm(seed=2)
    model = fit_lda(dtm, k=4, seed=0, max_iters=20)
    theta = infer_theta_batch(model, np.zeros((1, 25)))
    np.testing.assert_array_equal(theta, np.full((1, 4), 0.25))


def test_infer_theta_warns_once_on_unconverged_rows(monkeypatch, caplog):
    dtm = _random_dtm(seed=3)
    model = fit_lda(dtm, k=3, seed=0, max_iters=20)
    rows = dtm.counts.toarray()
    monkeypatch.setattr(topics, "_THETA_MAX_ITERS", 2)
    with caplog.at_level(logging.WARNING, logger="tonefx.topics"):
        theta = infer_theta_batch(model, rows)
    assert type(theta) is np.ndarray and theta.shape == (40, 3)
    messages = [r.getMessage() for r in caplog.records if r.name == "tonefx.topics"]
    assert len(messages) == 1
    unconverged = int(messages[0].split(" of ")[0])
    assert 0 < unconverged <= 40
    assert messages[0] == f"{unconverged} of 40 rows did not converge within max_iters=2"
    # the keyword-only output flags the same rows and leaves theta as it was
    converged = np.ones(40, dtype=bool)
    assert np.array_equal(infer_theta_batch(model, rows, converged=converged), theta)
    assert np.count_nonzero(~converged) == unconverged
    caplog.clear()
    # zero-count rows converge on the first sweep
    with caplog.at_level(logging.WARNING, logger="tonefx.topics"):
        infer_theta_batch(model, np.zeros((2, 25)))
    assert not caplog.records


def test_infer_theta_with_converged_leaves_the_warning_to_its_caller(monkeypatch, caplog):
    dtm = _random_dtm(seed=3)
    model = fit_lda(dtm, k=3, seed=0, max_iters=20)
    monkeypatch.setattr(topics, "_THETA_MAX_ITERS", 2)
    converged = np.empty(40, dtype=bool)
    with caplog.at_level(logging.DEBUG, logger="tonefx"):
        infer_theta_batch(model, dtm.counts, converged=converged)
    assert not converged.all()
    assert not caplog.records


def test_infer_theta_rejects_wrong_width():
    model = fit_lda(_random_dtm(), k=3, seed=0, max_iters=10)
    with pytest.raises(TopicModelError, match="terms"):
        infer_theta_batch(model, np.zeros((1, 7)))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_infer_theta_rows_are_probability_vectors(seed):
    rng = np.random.default_rng(seed)
    model = _PROPERTY_MODEL
    counts = rng.integers(0, 6, size=(5, 25))
    theta = infer_theta_batch(model, counts)
    assert np.all(theta >= 0)
    np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-9)


_PROPERTY_MODEL = fit_lda(_dtm_from_counts(
    np.random.default_rng(11).multinomial(30, np.full(25, 0.04), size=40),
    Vocabulary(
        terms=tuple(f"w{i:02d}" for i in range(25)),
        document_frequency=np.full(25, 0.5),
    ),
), k=3, seed=0, max_iters=20)


# ----------------------------------------------- reference sweep, bit for bit


def _reference_sweep(gamma, counts, exp_elog_beta, alpha):
    """One sweep written out directly: the dense normalizer product, a
    [rows, cols] gather and a fresh CSR ratio matrix on every call."""
    rows = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
    exp_elog_theta = np.exp(_dirichlet_expectation(gamma))
    pnorm = (exp_elog_theta @ exp_elog_beta)[rows, counts.indices] + 1e-100
    ratio = sparse.csr_matrix((counts.data / pnorm, counts.indices, counts.indptr), shape=counts.shape)
    return alpha + exp_elog_theta * (ratio @ exp_elog_beta.T), exp_elog_theta, pnorm, ratio


def _reference_fit(counts, k, seed, max_iters, tol=1e-4):
    """fit_lda's beta and ELBO trace, from _reference_sweep."""
    counts = sparse.csr_matrix(counts, dtype=float)
    n_docs, n_terms = counts.shape
    alpha, eta = 1.0 / k, DEFAULT_GAMMA_PRIOR
    lam = np.random.default_rng(seed).gamma(100.0, 0.01, (k, n_terms))
    gamma = np.full((n_docs, k), alpha) + np.asarray(counts.sum(axis=1)) / k
    trace = []
    for _ in range(max_iters):
        elog_beta = _dirichlet_expectation(lam)
        exp_elog_beta = np.exp(elog_beta)
        for _ in range(100):
            gamma_new = _reference_sweep(gamma, counts, exp_elog_beta, alpha)[0]
            change = float(np.abs(gamma_new - gamma).mean())
            gamma = gamma_new
            if change < 1e-3:
                break
        _, exp_elog_theta, pnorm, ratio = _reference_sweep(gamma, counts, exp_elog_beta, alpha)
        sstats = exp_elog_beta * (ratio.T @ exp_elog_theta).T
        elog_theta = _dirichlet_expectation(gamma)
        bound = float(np.sum(counts.data * np.log(pnorm)))
        bound += float(np.sum((alpha - gamma) * elog_theta))
        bound += float(np.sum(gammaln(gamma)) - np.sum(gammaln(gamma.sum(axis=1))))
        bound += n_docs * float(gammaln(k * alpha) - k * gammaln(alpha))
        bound += float(np.sum((eta - lam) * elog_beta))
        bound += float(np.sum(gammaln(lam)) - np.sum(gammaln(lam.sum(axis=1))))
        bound += k * float(gammaln(n_terms * eta) - n_terms * gammaln(eta))
        converged = bool(trace) and abs(bound - trace[-1]) < tol * abs(trace[-1])
        trace.append(bound)
        lam = eta + sstats
        if converged:
            break
    return lam / lam.sum(axis=1, keepdims=True), tuple(trace)


def _reference_theta(model, counts, max_iters=200, tol=1e-6):
    """infer_theta_batch's output, from _reference_sweep."""
    counts = sparse.csr_matrix(counts, dtype=float)
    alpha = model.alpha_prior
    beta = np.maximum(model.beta, 1e-300)
    gamma = np.full((counts.shape[0], model.k), alpha) + np.asarray(counts.sum(axis=1)) / model.k
    active = np.ones(counts.shape[0], dtype=bool)
    for _ in range(max_iters):
        if not active.any():
            break
        gamma_new = _reference_sweep(gamma, counts, beta, alpha)[0]
        change = np.abs(gamma_new - gamma).mean(axis=1)
        gamma[active] = gamma_new[active]
        active &= change >= tol
    return gamma / gamma.sum(axis=1, keepdims=True)


@st.composite
def _sparse_counts(draw):
    """A count matrix with at least one zero row, one unused column and one token."""
    shape = (draw(st.integers(2, 12)), draw(st.integers(3, 16)))
    counts = draw(arrays(np.int64, shape, elements=st.sampled_from([0, 0, 0, 1, 2, 7])))
    counts[draw(st.integers(0, shape[0] - 1))] = 0
    counts[:, draw(st.integers(0, shape[1] - 1))] = 0
    assume(counts.sum() > 0)
    return counts


@settings(deadline=None, max_examples=30)
@given(_sparse_counts(), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_sweeps_match_reference_bit_for_bit(counts, k, seed):
    vocab = Vocabulary(
        terms=tuple(f"w{i:02d}" for i in range(counts.shape[1])),
        document_frequency=np.full(counts.shape[1], 0.5),
    )
    model = fit_lda(_dtm_from_counts(counts, vocab), k=k, seed=seed, max_iters=8)
    beta, trace = _reference_fit(counts, k, seed, max_iters=8)
    assert np.array_equal(model.beta, beta)
    assert model.elbo_trace == trace
    # back to back: inference right after the fit on the same counts, then
    # a second inference with the same model, each against a fresh call
    for rows in (counts, counts[::-1, :]):
        assert np.array_equal(infer_theta_batch(model, rows), _reference_theta(model, rows))


def _freeze_sweeps(model, counts, max_iters=200, tol=1e-6):
    """The sweep at which each row of infer_theta_batch's loop freezes, from
    _reference_sweep; max_iters for a row that never does."""
    counts = sparse.csr_matrix(counts, dtype=float)
    alpha = model.alpha_prior
    beta = np.maximum(model.beta, 1e-300)
    gamma = np.full((counts.shape[0], model.k), alpha) + np.asarray(counts.sum(axis=1)) / model.k
    frozen_at = np.full(counts.shape[0], max_iters)
    for sweep in range(max_iters):
        active = frozen_at == max_iters
        if not active.any():
            break
        gamma_new = _reference_sweep(gamma, counts, beta, alpha)[0]
        change = np.abs(gamma_new - gamma).mean(axis=1)
        gamma[active] = gamma_new[active]
        frozen_at[active & (change < tol)] = sweep
    return frozen_at


def _staggered_batch(n_terms=25, k=4):
    """A model and 61 rows of 2 to 199 tokens that freeze at different sweeps, one of them empty.

    At 1,300 terms and k = 12, a dense product over a subset of the rows
    would differ from the same rows of the whole product in its last bits.
    """
    rng = np.random.default_rng(7)
    model = LdaModel(
        k=k,
        beta=rng.dirichlet(np.full(n_terms, 0.2), size=k),
        alpha_prior=1.0 / k,
        gamma_prior=DEFAULT_GAMMA_PRIOR,
        elbo_trace=(),
        seed=0,
        vocabulary=Vocabulary(
            terms=tuple(f"w{i:04d}" for i in range(n_terms)),
            document_frequency=np.full(n_terms, 0.5),
        ),
    )
    lengths = rng.integers(2, 200, size=60)
    rows = np.array([
        rng.multinomial(n, rng.dirichlet(np.full(k, 0.5)) @ model.beta) for n in lengths
    ])
    return model, np.vstack([rows[:30], np.zeros((1, n_terms), dtype=int), rows[30:]])


def _sweep_spy(monkeypatch):
    """Record the batch rows that each _gamma_sweep call updates."""
    calls = []
    sweep = topics._gamma_sweep

    def spy(exp_elog_theta, nonzeros, *args):
        calls.append(np.arange(len(exp_elog_theta))[nonzeros.rows])
        return sweep(exp_elog_theta, nonzeros, *args)

    monkeypatch.setattr(topics, "_gamma_sweep", spy)
    return calls


@pytest.mark.parametrize("n_terms,k", [(25, 4), (1300, 12)])
def test_theta_with_repeated_reindexing_matches_reference(monkeypatch, n_terms, k):
    model, counts = _staggered_batch(n_terms, k)
    calls = _sweep_spy(monkeypatch)
    theta = infer_theta_batch(model, counts)
    assert np.array_equal(theta, _reference_theta(model, counts))
    assert np.array_equal(theta[30], np.full(k, 1.0 / k))
    # the full batch, then at least two narrower indexes
    assert len({len(rows) for rows in calls}) >= 3
    frozen_at = _freeze_sweeps(model, counts)
    assert len(set(frozen_at.tolist())) >= 10
    # the same batch in another order gives each row the same bits
    order = np.random.default_rng(1).permutation(len(counts))
    assert np.array_equal(infer_theta_batch(model, counts[order]), theta[order])


def test_frozen_rows_are_not_swept_again(monkeypatch):
    model, counts = _staggered_batch()
    calls = _sweep_spy(monkeypatch)
    infer_theta_batch(model, counts)
    frozen_at = _freeze_sweeps(model, counts)
    assert len(calls) == min(frozen_at.max() + 1, 200)
    built = 0
    for sweep, rows in enumerate(calls):
        if sweep and len(rows) < len(calls[sweep - 1]):
            # a new index holds exactly the rows still active, and only
            # rows of the index before it
            assert np.isin(rows, calls[sweep - 1]).all()
            assert np.array_equal(rows, np.flatnonzero(frozen_at >= sweep))
            built = sweep
        else:
            assert sweep == 0 or np.array_equal(rows, calls[sweep - 1])
        # a row frozen before the index was built never reaches the sweep;
        # rows frozen since then are at most a quarter of the index
        assert (frozen_at[rows] >= built).all()
        assert 4 * np.count_nonzero(frozen_at[rows] < sweep) <= len(rows)
    assert sum(map(len, calls)) < len(counts) * len(calls)


@pytest.mark.parametrize("row", [3, 30])
def test_one_row_batch_matches_reference(row):
    model, counts = _staggered_batch()
    one = counts[row:row + 1]
    theta = infer_theta_batch(model, one)
    assert np.array_equal(theta, _reference_theta(model, one))


# ------------------------------------------------------------ persistence


def test_top_words_orders_by_probability_then_term():
    vocab = Vocabulary(
        terms=("alpha", "beta", "gamma", "delta"),
        document_frequency=np.full(4, 0.5),
    )
    model = LdaModel(
        k=1,
        beta=np.array([[0.2, 0.4, 0.2, 0.2]]),
        alpha_prior=0.5,
        gamma_prior=0.01,
        elbo_trace=(0.0,),
        seed=0,
        vocabulary=vocab,
    )
    # ties resolve by column position, which is term order
    assert top_words(model, 0, n=4) == ["beta", "alpha", "gamma", "delta"]
    assert top_words(model, 0, n=99) == ["beta", "alpha", "gamma", "delta"]
    with pytest.raises(TopicModelError):
        top_words(model, 1)
    with pytest.raises(TopicModelError):
        top_words(model, 0, n=0)


def test_model_roundtrip_is_exact(tmp_path):
    model = fit_lda(_random_dtm(seed=9), k=3, seed=4, max_iters=15)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.beta, model.beta)
    assert loaded.elbo_trace == model.elbo_trace
    assert loaded.vocabulary.terms == model.vocabulary.terms
    assert (loaded.k, loaded.seed) == (model.k, model.seed)
    assert (loaded.alpha_prior, loaded.gamma_prior) == (
        model.alpha_prior, model.gamma_prior,
    )


_TINY = st.sampled_from([0.0, 1e-300, 5e-324, 2.2250738585072014e-308, 1e-310, 1e-17])


@st.composite
def _models(draw):
    """Models with k >= 1, subnormal and tiny beta entries and non-ASCII terms."""
    k = draw(st.integers(1, 3))
    terms = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=6, unique=True))
    rows = []
    for _ in range(k):
        rest = draw(st.lists(
            _TINY | st.floats(0.0, 1.0 / len(terms)), min_size=len(terms) - 1,
            max_size=len(terms) - 1,
        ))
        rows.append([1.0 - sum(rest)] + rest)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return LdaModel(
        k=k,
        beta=np.array(rows),
        alpha_prior=draw(st.floats(1e-300, 10.0)),
        gamma_prior=draw(_TINY | st.floats(1e-3, 1.0)),
        elbo_trace=tuple(draw(st.lists(finite, max_size=4))),
        seed=draw(st.integers(0, 2**63)),
        vocabulary=Vocabulary(
            terms=tuple(terms),
            document_frequency=np.array(draw(st.lists(
                _TINY | st.floats(0.0, 1.0), min_size=len(terms), max_size=len(terms),
            ))),
        ),
    )


@settings(deadline=None)
@given(_models())
def test_save_model_bytes_match_a_json_dump_of_the_payload(tmp_path_factory, model):
    import io
    import json

    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    reference = io.StringIO()
    json.dump({
        "format": "tonefx-lda",
        "format_version": "1.0",
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
    }, reference)
    assert path.read_bytes() == (reference.getvalue() + "\n").encode("utf-8")


def test_load_model_rejects_foreign_artifacts(tmp_path):
    import json

    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "other", "format_version": "1.0"}))
    with pytest.raises(TopicModelError, match="not a"):
        load_model(path)

    model = fit_lda(_random_dtm(), k=2, seed=0, max_iters=5)
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = "2.0"
    path.write_text(json.dumps(payload))
    with pytest.raises(TopicModelError, match="unsupported tonefx-lda version '2.0'"):
        load_model(path)

    # every malformed file raises a ModelFileError that names it
    payload["format_version"] = "1.0"
    wrong_type = "has the wrong JSON type"
    broken = {
        "[1]": "not a tonefx-lda document",
        "{not json": "invalid JSON",
        "[" * 100_000 + "]" * 100_000: "invalid JSON (nested too deeply)",
        json.dumps({**payload, "k": None}): f"field 'k' {wrong_type}",
        json.dumps({**payload, "k": "2"}): f"field 'k' {wrong_type}",
        json.dumps({**payload, "k": 2.0}): f"field 'k' {wrong_type}",
        json.dumps({**payload, "seed": True}): f"field 'seed' {wrong_type}",
        json.dumps({**payload, "alpha_prior": "0.5"}): f"field 'alpha_prior' {wrong_type}",
        json.dumps({**payload, "elbo_trace": 3}): f"field 'elbo_trace' {wrong_type}",
        json.dumps({**payload, "elbo_trace": []}): "field 'elbo_trace' is empty",
        json.dumps({**payload, "beta": [[0.5, 0.5], [1.0]]}): "",  # ragged
        json.dumps({**payload, "beta": [[0.5, None]] * 2}): f"field 'beta' {wrong_type}",
        json.dumps({**payload, "beta": [["a"] * 25] * 2}): f"field 'beta' {wrong_type}",
        json.dumps({**payload, "beta": [[0.5, 0.5]] * 2}): "beta shape",
        json.dumps({**payload, "vocabulary": []}): "",
        json.dumps({**payload, "vocabulary": {"terms": [1]}}): f"field 'terms' {wrong_type}",
        json.dumps({**payload, "vocabulary": {"terms": ["a"]}}): "field 'document_frequency'",
        json.dumps({k: v for k, v in payload.items() if k != "gamma_prior"}): "missing field",
    }
    for text, message in broken.items():
        path.write_text(text)
        with pytest.raises(ModelFileError, match=f"^model.json: .*{re.escape(message)}"):
            load_model(path)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ModelFileError, match="^model.json: not valid UTF-8"):
        load_model(path)
    with pytest.raises(ModelFileError, match=f"^{tmp_path.name}: cannot read"):
        load_model(tmp_path)


def test_theta_entries_read_back_bit_for_bit(tmp_path):
    import json

    model, counts = _staggered_batch(1300, 12)
    theta = infer_theta_batch(model, counts)
    post_ids = [f"p{i}" for i in range(len(theta))]
    path = tmp_path / "theta.json"
    save_theta(path, post_ids, theta, 3)
    loaded, unconverged = load_theta(path, post_ids, 12)
    assert loaded.tobytes() == theta.tobytes() and unconverged == 3
    payload = json.loads(path.read_text())
    assert payload["format"] == "tonefx-theta" and payload["shape"] == [61, 12]
    # a batch that the entry does not hold, or a malformed entry, names the file
    for ids, k, message in ((post_ids[::-1], 12, "post ids"), (post_ids, 11, "shape")):
        with pytest.raises(ModelFileError, match=f"^theta.json: .*{message}"):
            load_theta(path, ids, k)
    broken = {
        json.dumps({**payload, "theta": payload["theta"][:-8]}): "bytes, not",
        json.dumps({**payload, "theta": "not base64!"}): "",
        json.dumps({**payload, "unconverged": 62}): "out of range",
        json.dumps({**payload, "unconverged": True}): "field 'unconverged'",
        json.dumps({**payload, "format": "tonefx-lda"}): "not a tonefx-theta document",
        json.dumps({k: v for k, v in payload.items() if k != "shape"}): "missing field",
    }
    for text, message in broken.items():
        path.write_text(text)
        with pytest.raises(ModelFileError, match=f"^theta.json: .*{re.escape(message)}"):
            load_theta(path, post_ids, 12)


def test_lda_model_validates_beta():
    vocab = Vocabulary(terms=("a", "b"), document_frequency=np.array([0.5, 0.5]))
    with pytest.raises(TopicModelError, match="sum to 1"):
        LdaModel(
            k=1, beta=np.array([[0.7, 0.7]]), alpha_prior=0.5, gamma_prior=0.01,
            elbo_trace=(), seed=0, vocabulary=vocab,
        )
    with pytest.raises(TopicModelError, match="shape"):
        LdaModel(
            k=2, beta=np.array([[0.5, 0.5]]), alpha_prior=0.5, gamma_prior=0.01,
            elbo_trace=(), seed=0, vocabulary=vocab,
        )
