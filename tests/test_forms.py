"""A run's table of post forms: topic counts and category rows built from form ids."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from tonefx import topics
from tonefx.corpus import Post, PostCollection
from tonefx.harness.pipeline import PostForms
from tonefx.lexicon import (
    categorize_token,
    default_grouping_path,
    default_lexicon_path,
    load_lexicon,
)
from tonefx.topics import (
    _TOKEN_RE,
    TopicModelError,
    build_dtm,
    build_vocabulary,
    lemmatize_token,
)

# stop words, lemma exceptions with their bases, forms the suffix rules
# merge, lexicon words, and words that only a few posts share
_WORDS = st.sampled_from(
    sorted(topics._STOPWORDS)[:8]
    + sorted(topics._LEMMA_EXCEPTIONS)[:8]
    + sorted(topics._LEMMA_EXCEPTIONS.values())[:4]
    + ["gun", "guns", "running", "run", "parties", "party", "happy", "hate", "nice",
       "don't", "GUNS", "zebra", "42", "'quoted'", "dog's", "café", "don’t", "rock''n"]
)
_TEXTS = st.lists(
    st.lists(_WORDS, max_size=12).map(" ".join), min_size=1, max_size=10
)
_BOUNDS = st.sampled_from([(0.0, 1.0), (0.0, 0.8), (0.1, 0.9), (0.3, 0.7), (0.5, 1.0)])


def _posts(texts):
    return PostCollection(tuple(
        Post(f"p{i}", "d", "topic", f"u{i}", i, None, text) for i, text in enumerate(texts)
    ))


def _drop_final_s(raw):
    return raw[:-2] if raw.endswith("'s") else raw


def _reference_counts(texts, min_df, max_df):
    """Vocabulary, document frequencies, CSR counts and zero rows, counted one
    token list at a time with a Counter, as a string-list counter would."""
    token_lists = [
        [
            lemmatize_token(raw, topics._LEMMA_EXCEPTIONS)
            for raw in map(_drop_final_s, _TOKEN_RE.findall(text.lower()))
            if raw not in topics._STOPWORDS
        ]
        for text in texts
    ]
    n_docs = len(token_lists)
    doc_counts = Counter(term for tokens in token_lists for term in set(tokens))
    kept = sorted(term for term, count in doc_counts.items() if min_df < count / n_docs < max_df)
    if not kept:
        return None
    df = np.array([doc_counts[term] / n_docs for term in kept], dtype=float)
    index = {term: i for i, term in enumerate(kept)}
    data, indices, indptr = [], [], [0]
    for tokens in token_lists:
        row = Counter(token for token in tokens if token in index)
        for term in sorted(row, key=index.__getitem__):
            indices.append(index[term])
            data.append(row[term])
        indptr.append(len(indices))
    counts = sparse.csr_matrix(
        (np.asarray(data, dtype=np.int64), np.asarray(indices, dtype=np.int32), indptr),
        shape=(n_docs, len(kept)),
    )
    zero_rows = tuple(i for i in range(n_docs) if indptr[i] == indptr[i + 1])
    return tuple(kept), df, counts, zero_rows


def _same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.shape == want.shape


@settings(max_examples=200, deadline=None)
@given(_TEXTS, _BOUNDS, st.data())
def test_topic_counts_match_counter_reference(texts, bounds, data):
    min_df, max_df = bounds
    posts = _posts(texts)
    ids = [post.id for post in posts]
    table = PostForms(posts)
    reference = _reference_counts(texts, min_df, max_df)
    counted = table.term_counts(ids)
    if reference is None:
        with pytest.raises(TopicModelError, match="no terms"):
            build_vocabulary(counted, min_df=min_df, max_df=max_df)
        return
    terms, df, counts, zero_rows = reference
    vocabulary = build_vocabulary(counted, min_df=min_df, max_df=max_df)
    assert vocabulary.terms == terms
    assert vocabulary.document_frequency.tobytes() == df.tobytes()
    dtm = build_dtm(counted, vocabulary)
    _same_csr(dtm.counts, counts)
    assert dtm.zero_rows == zero_rows
    # a batch sliced from the fit's counts is the batch counted alone
    rows = data.draw(st.lists(st.integers(0, len(ids) - 1), min_size=1, unique=True))
    alone = build_dtm(table.term_counts([ids[i] for i in rows]), vocabulary)
    _same_csr(dtm.counts[rows], alone.counts)
    _same_csr(alone.counts, counts[rows])


@pytest.fixture(scope="module")
def shipped_lexicon():
    return load_lexicon(default_lexicon_path(), default_grouping_path())


def _reference_row(lexicon, grouping, text):
    """A category row by the arithmetic of a per-text Counter over surface forms."""
    tokens = _TOKEN_RE.findall(text.lower())
    counts = [0] * grouping.width
    for form, count in Counter(tokens).items():
        for cat in categorize_token(lexicon, form):
            for col in grouping._columns.get(cat, ()):
                counts[col] += count
    row = np.array(counts, dtype=float)
    if tokens:
        row /= len(tokens)
    return row


@settings(max_examples=200, deadline=None)
@given(_TEXTS, st.data())
def test_category_rows_match_counter_reference_bit_for_bit(shipped_lexicon, texts, data):
    lexicon, grouping = shipped_lexicon
    posts = _posts(texts)
    table = PostForms(posts)
    # some posts are split first by a topic count, as in a cold run
    table.term_counts([post.id for post in posts][: data.draw(st.integers(0, len(posts)))])
    ids = data.draw(st.permutations([post.id for post in posts]))
    rows = table.category_rows(lexicon, grouping, ids)
    assert list(rows) == ids
    for post_id, row in rows.items():
        want = _reference_row(lexicon, grouping, posts.get(post_id).text)
        assert row.tobytes() == want.tobytes(), post_id
