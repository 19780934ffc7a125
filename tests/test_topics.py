"""Tokenization, vocabulary, and the variational topic model."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from tonefx.topics import (
    _TOKEN_RE,
    LdaModel,
    TopicModelError,
    Tokenizer,
    Vocabulary,
    build_dtm,
    build_vocabulary,
    default_tokenizer,
    fit_lda,
    infer_theta_batch,
    lemmatize_token,
    load_model,
    save_model,
    surface_tokenizer,
    top_words,
)


# ------------------------------------------------------------- tokenizer


def test_default_tokenizer_frozen_example():
    assert default_tokenizer()("The guns were firing.") == ["gun", "fire"]


def test_surface_tokenizer_keeps_everything():
    assert surface_tokenizer()("The GUNS were firing.") == [
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


def _reference_tokens(tokenizer: Tokenizer, text: str) -> list[str]:
    """The tokenizer's output rebuilt one occurrence at a time, with no memo."""
    table = dict(tokenizer.exceptions)
    tokens = []
    for raw in _TOKEN_RE.findall(text.lower()):
        if raw in tokenizer.stopwords:
            continue
        token = lemmatize_token(raw, table) if tokenizer.lemmatize else raw
        if token:
            tokens.append(token)
    return tokens


_DEFAULT = default_tokenizer()
_WORDS = st.sampled_from(
    sorted(_DEFAULT.stopwords)[:15]
    + sorted(dict(_DEFAULT.exceptions))[:15]
    + ["running", "parties", "boxes", "classes", "hoped", "falling", "fired", "bus",
       "is", "don't", "it's", "gone", "went", "the", "GUNS"]
) | st.text(alphabet="abeginorst'", max_size=8)
_TEXTS = st.lists(
    st.lists(_WORDS, max_size=12).map(lambda words: " ".join(words) + "."),
    min_size=1, max_size=5,
)


@given(_TEXTS)
def test_memoized_tokenizer_matches_per_token_reference(texts):
    # a fresh tokenizer starts with an empty memo; the shared ones carry
    # theirs across examples; "gone" maps to an empty lemma and is dropped
    fresh = Tokenizer(stopwords=frozenset({"the", "is"}), exceptions=(("gone", ""), ("went", "go")))
    for tokenizer in (fresh, _DEFAULT, surface_tokenizer()):
        outputs = [tokenizer(text) for text in texts + texts[::-1]]
        assert outputs == [_reference_tokens(tokenizer, text) for text in texts + texts[::-1]]
        # all occurrences of one raw form share one string object
        raws = {raw for text in texts for raw in _TOKEN_RE.findall(text.lower())}
        assert len({id(t) for tokens in outputs for t in tokens}) <= len(raws)


def test_lemmatizer_exception_table_wins():
    assert lemmatize_token("went", {"went": "go"}) == "go"
    assert default_tokenizer()("she went home") == ["go", "home"]


def test_tokenizer_drops_non_alphabetic():
    # digits and punctuation separate tokens rather than joining them
    assert surface_tokenizer()("a1b 42 -- don't") == ["a", "b", "don't"]
    assert surface_tokenizer()("42 --") == []


def test_tokenizer_fingerprint_tracks_config():
    plain = Tokenizer()
    assert plain.fingerprint() == Tokenizer().fingerprint()
    assert plain.fingerprint() != Tokenizer(stopwords=frozenset({"the"})).fingerprint()


@given(st.text(max_size=300))
def test_tokenizer_output_is_lowercase_alpha(text):
    for token in default_tokenizer()(text):
        assert token == token.lower()
        assert all(c.isalpha() or c == "'" for c in token)


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


def test_build_vocabulary_exclusive_bounds():
    # df: gun 3/5, crime 3/5, law 4/5, courts 3/5
    vocab = build_vocabulary(DOCS, min_df=0.0, max_df=0.8)
    assert vocab.terms == ("courts", "crime", "gun")  # law at exactly 0.8 dropped
    vocab = build_vocabulary(DOCS, min_df=0.6, max_df=0.9)
    assert vocab.terms == ("law",)  # the 0.6 terms sit exactly on the bound


def test_build_vocabulary_rejects_bad_inputs():
    with pytest.raises(TopicModelError, match="min_df"):
        build_vocabulary(DOCS, min_df=0.5, max_df=0.5)
    with pytest.raises(TopicModelError, match="zero posts"):
        build_vocabulary([])
    with pytest.raises(TopicModelError, match="no terms"):
        build_vocabulary(DOCS, min_df=0.99, max_df=1.0)


def test_vocabulary_terms_sorted_and_unique():
    vocab = build_vocabulary(DOCS, min_df=0.0, max_df=1.0)
    assert list(vocab.terms) == sorted(set(vocab.terms))
    assert vocab.index["courts"] == 0
    with pytest.raises(TopicModelError, match="unique"):
        Vocabulary(terms=("a", "a"), document_frequency=np.array([0.5, 0.5]))


def test_build_dtm_counts_and_zero_rows():
    vocab = build_vocabulary(DOCS, min_df=0.0, max_df=1.0)
    dtm = build_dtm(DOCS + [["nothing", "known", "here"]], vocab)
    assert dtm.n_docs == 6 and dtm.n_terms == 4
    dense = dtm.counts.toarray()
    assert dense[0, vocab.index["gun"]] == 2
    assert dense[0, vocab.index["courts"]] == 0
    assert dtm.zero_rows == (5,)
    assert dense[5].sum() == 0


@given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=15), min_size=1, max_size=6))
def test_build_dtm_matches_per_occurrence_count(docs):
    vocab = Vocabulary(terms=("a", "c", "e"), document_frequency=np.full(3, 0.5))
    dense = build_dtm(docs, vocab).counts.toarray()
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
    with pytest.raises(TopicModelError, match="priors"):
        fit_lda(dtm, k=2, alpha_prior=-1.0)
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


def test_infer_theta_warns_once_on_unconverged_rows(caplog):
    dtm = _random_dtm(seed=3)
    model = fit_lda(dtm, k=3, seed=0, max_iters=20)
    rows = dtm.counts.toarray()
    with caplog.at_level(logging.WARNING, logger="tonefx.topics"):
        theta = infer_theta_batch(model, rows, max_iters=2)
    assert type(theta) is np.ndarray and theta.shape == (40, 3)
    messages = [r.getMessage() for r in caplog.records if r.name == "tonefx.topics"]
    assert len(messages) == 1
    unconverged = int(messages[0].split(" of ")[0])
    assert 0 < unconverged <= 40
    assert messages[0] == f"{unconverged} of 40 rows did not converge within max_iters=2"
    caplog.clear()
    # zero-count rows converge on the first sweep
    with caplog.at_level(logging.WARNING, logger="tonefx.topics"):
        infer_theta_batch(model, np.zeros((2, 25)), max_iters=2)
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
    with pytest.raises(TopicModelError, match="unsupported format version"):
        load_model(path)


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
