"""Category lexicon parsing, post category rows, and the distance outcome."""

import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tonefx import lexicon as lexicon_module
from tonefx.harness.synthetic import _synthetic_vocabulary
from tonefx.lexicon import (
    CategoryType,
    LexiconError,
    categorize_token,
    compute_outcome,
    default_grouping_path,
    default_lexicon_path,
    load_lexicon,
    vectorize_post,
)
from tonefx.topics import _TOKEN_RE

POSITIVE = (("posemo", "joy", "praise", "hope"))
NEGATIVE = (("negemo", "anger", "sadness", "fear"))
STYLE = (
    "article", "pronoun", "preposition", "conjunction",
    "auxiliary", "negate", "quantifier", "certainty",
)


# ---------------------------------------------------------------- loading


def test_default_lexicon_shape(lexicon_grouping):
    lexicon, grouping = lexicon_grouping
    assert len(set().union(*lexicon.exact.values(), *lexicon.prefixes.values())) == 16
    assert grouping.categories(CategoryType.POSITIVE_SENTIMENT) == POSITIVE
    assert grouping.categories(CategoryType.NEGATIVE_SENTIMENT) == NEGATIVE
    assert grouping.categories(CategoryType.LINGUISTIC_STYLE) == STYLE


def test_malformed_lexicon_line_names_lineno(tmp_path):
    lex = tmp_path / "lex.txt"
    lex.write_text("good\tposemo\nbad line without tab\n")
    grp = tmp_path / "grp.txt"
    grp.write_text("[positive_sentiment]\nposemo\n")
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon(lex, grp)


def test_grouping_unknown_category_rejected(tmp_path):
    lex = tmp_path / "lex.txt"
    lex.write_text("good\tposemo\n")
    grp = tmp_path / "grp.txt"
    grp.write_text("[positive_sentiment]\nposemo\nmystery\n")
    with pytest.raises(LexiconError, match="mystery"):
        load_lexicon(lex, grp)


_GROUPING = (
    "[positive_sentiment]\nposemo\n[negative_sentiment]\nnegemo\n[linguistic_style]\narticle\n"
)


@pytest.mark.parametrize(
    "lexicon_text,grouping_text,message",
    [
        ("good\tposemo\nbad\tnegemo,\n", _GROUPING,
         "lex.txt line 2: empty pattern or category"),
        ("good\tposemo\nba*d\tnegemo\n", _GROUPING,
         "lex.txt line 2: '*' is only allowed at the end of a pattern, got 'ba*d'"),
        ("good\tposemo\n# comment\n*\tnegemo\n", _GROUPING,
         "lex.txt line 3: bare '*' pattern is not allowed"),
        ("good\tposemo\n", "[positive_sentiment]\nposemo\n[moods]\n",
         "grp.txt line 3: unknown category type 'moods'"),
        ("good\tposemo\n", "[positive_sentiment]\nposemo\n[positive_sentiment]\n",
         "grp.txt line 3: duplicate section 'positive_sentiment'"),
        ("good\tposemo\n", "# heading\nposemo\n",
         "grp.txt line 2: category outside any section"),
        ("good\tposemo\n", "[positive_sentiment]\nposemo\n\nposemo\n",
         "grp.txt line 4: duplicate category 'posemo'"),
        ("good\tposemo\nbad\tnegemo\n",
         "[positive_sentiment]\nposemo\n[negative_sentiment]\nnegemo\n[linguistic_style]\n",
         "grouping section 'linguistic_style' is missing or empty"),
    ],
    ids=["empty-category", "inner-star", "bare-star", "unknown-section", "duplicate-section",
         "outside-section", "duplicate-category", "empty-section"],
)
def test_lexicon_format_rules(tmp_path, lexicon_text, grouping_text, message):
    lex = tmp_path / "lex.txt"
    lex.write_text(lexicon_text + "the\tarticle\n")
    grp = tmp_path / "grp.txt"
    grp.write_text(grouping_text)
    with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
        load_lexicon(lex, grp)


def test_missing_files_raise(tmp_path, lexicon_grouping):
    from tonefx.lexicon import default_grouping_path, default_lexicon_path

    with pytest.raises(FileNotFoundError):
        load_lexicon(tmp_path / "nope.txt", default_grouping_path())
    with pytest.raises(FileNotFoundError):
        load_lexicon(default_lexicon_path(), tmp_path / "nope.txt")


# ---------------------------------------------------------------- matching


def test_categorize_exact_and_prefix(lexicon_grouping):
    lexicon, _ = lexicon_grouping
    assert categorize_token(lexicon, "happy") == {"posemo", "joy"}
    assert categorize_token(lexicon, "happiness") == {"posemo", "joy"}
    assert categorize_token(lexicon, "glad") == {"posemo", "joy"}
    # exact pattern, so inflections do not match
    assert categorize_token(lexicon, "gladly") == frozenset()
    assert categorize_token(lexicon, "hopeful") == {"posemo", "hope"}
    assert categorize_token(lexicon, "zebra") == frozenset()


def _categorize_at_every_length(lexicon, token):
    """categorize_token's reference: the exact entry and a prefix lookup at every length."""
    cats = set(lexicon.exact.get(token, ()))
    for end in range(len(token) + 1):
        cats |= lexicon.prefixes.get(token[:end], set())
    return cats


def test_categorize_matches_a_lookup_at_every_length():
    lexicon, _ = load_lexicon(default_lexicon_path(), default_grouping_path())
    tokens = {"", *lexicon.exact}
    for stem in lexicon.prefixes:
        tokens |= {stem, stem[:-1], stem + "s"}
    tokens |= set(_synthetic_vocabulary(2000, lexicon, np.random.default_rng(0)))
    for token in sorted(tokens):
        assert categorize_token(lexicon, token) == _categorize_at_every_length(lexicon, token)


# ------------------------------------------------------------- vectorize


def test_row_layout_follows_category_type_order(lexicon_grouping):
    _, grouping = lexicon_grouping
    assert grouping.width == len(POSITIVE) + len(NEGATIVE) + len(STYLE)
    assert grouping.columns(CategoryType.POSITIVE_SENTIMENT) == slice(0, 4)
    assert grouping.columns(CategoryType.NEGATIVE_SENTIMENT) == slice(4, 8)
    assert grouping.columns(CategoryType.LINGUISTIC_STYLE) == slice(8, 16)


def test_vectorize_relative_frequencies(lexicon_grouping):
    lexicon, grouping = lexicon_grouping
    # 7 surface tokens: i, am, happy, so, happy, and, kind
    row = vectorize_post(lexicon, grouping, "I am happy, so happy and kind.")
    assert row.shape == (grouping.width,)
    positive = row[grouping.columns(CategoryType.POSITIVE_SENTIMENT)]
    np.testing.assert_allclose(positive, np.array([3, 2, 1, 0]) / 7.0)


def test_vectorize_zero_tokens_gives_zero_vector(lexicon_grouping):
    lexicon, grouping = lexicon_grouping
    row = vectorize_post(lexicon, grouping, "123 !!!")
    assert row.shape == (grouping.width,)
    assert np.all(row == 0.0)


@given(st.text(max_size=200))
def test_vectorize_any_text_stays_in_bounds(lexicon_grouping, text):
    lexicon, grouping = lexicon_grouping
    row = vectorize_post(lexicon, grouping, text)
    assert np.all(row >= 0.0) and np.all(row <= 1.0)


def test_category_in_two_sections_counts_in_both_blocks(tmp_path):
    lex = tmp_path / "lex.txt"
    lex.write_text("good\tposemo\nsure\tcertainty\nnot\tnegate\n")
    grp = tmp_path / "grp.txt"
    grp.write_text(
        "[positive_sentiment]\nposemo\ncertainty\n"
        "[negative_sentiment]\nnegate\n"
        "[linguistic_style]\nnegate\ncertainty\n"
    )
    lexicon, grouping = load_lexicon(lex, grp)
    # 4 surface tokens: good, sure, not, sure
    row = vectorize_post(lexicon, grouping, "good sure, not sure")
    np.testing.assert_allclose(row, np.array([1, 2, 1, 1, 2]) / 4.0)


@pytest.fixture(scope="module")
def memo_lexicon_paths(tmp_path_factory):
    """Exact and prefix patterns, overlapping ones, and ``negate`` in two sections."""
    directory = tmp_path_factory.mktemp("memo-lexicon")
    lex = directory / "lex.txt"
    lex.write_text(
        "good\tposemo\nsure\tcertainty\nnot\tnegate\nthe\tarticle\n"
        "hap*\tposemo,joy\nhappy\tjoy\nun*\tnegate\ndon't\tnegate,article\n"
    )
    grp = directory / "grp.txt"
    grp.write_text(
        "[positive_sentiment]\nposemo\njoy\n"
        "[negative_sentiment]\nnegate\n"
        "[linguistic_style]\narticle\nnegate\ncertainty\n"
    )
    return lex, grp


def _reference_row(lexicon, grouping, text: str) -> np.ndarray:
    """The category row rebuilt one token occurrence at a time, with no memo."""
    tokens = _TOKEN_RE.findall(text.lower())
    row = np.zeros(grouping.width)
    for token in tokens:
        for cat in categorize_token(lexicon, token):
            for ctype in CategoryType:
                block = grouping.categories(ctype)
                if cat in block:
                    row[grouping.columns(ctype).start + block.index(cat)] += 1.0
    if tokens:
        row /= len(tokens)
    return row


_WORDS = st.sampled_from(
    ["good", "sure", "not", "the", "The", "happy", "happiness", "hap", "unsure", "un",
     "don't", "zebra", "goodness", "a"]
) | st.text(alphabet="adeghnopstuy'", max_size=7)
_TEXTS = st.lists(
    st.lists(_WORDS, max_size=15).map(lambda words: ", ".join(words)),
    min_size=1, max_size=5,
)


@pytest.fixture(scope="module")
def warm_lexicon(memo_lexicon_paths):
    """One lexicon object whose memo carries over from example to example."""
    return load_lexicon(*memo_lexicon_paths)


@given(_TEXTS)
def test_memoized_rows_match_per_token_reference(memo_lexicon_paths, warm_lexicon, texts):
    texts = texts + texts[::-1]
    forms = {form for text in texts for form in _TOKEN_RE.findall(text.lower())}
    for lexicon, grouping in (load_lexicon(*memo_lexicon_paths), warm_lexicon):
        expected = [_reference_row(lexicon, grouping, text) for text in texts]
        with mock.patch.object(
            lexicon_module, "categorize_token", wraps=categorize_token
        ) as counted:
            rows = [vectorize_post(lexicon, grouping, text) for text in texts]
        # bit for bit: whole-number counts sum exactly in any order
        assert [row.tobytes() for row in rows] == [row.tobytes() for row in expected]
        # one lexicon object categorizes each form once, however often it recurs
        calls = Counter(call.args[1] for call in counted.call_args_list)
        assert all(n == 1 for n in calls.values())
        if lexicon is not warm_lexicon[0]:
            assert set(calls) == forms


# --------------------------------------------------------------- outcome


def test_outcome_is_euclidean_distance():
    a = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.4, 0.0, 0.0]])
    b = np.array([[0.3, 0.4, 0.0, 0.0], [0.3, 0.4, 0.0, 0.0]])
    np.testing.assert_allclose(compute_outcome(a, b), [0.5, 0.0], atol=1e-12)
    assert compute_outcome(a, b)[1] == 0.0


def test_outcome_rejects_mismatched_blocks():
    with pytest.raises(LexiconError, match="cannot compare"):
        compute_outcome(np.zeros((2, 4)), np.zeros((2, 8)))


unit_blocks = arrays(
    float, (3, 4), elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
)


@given(unit_blocks, unit_blocks)
def test_outcome_symmetry_and_bounds(a, b):
    d = compute_outcome(a, b)
    assert d.shape == (3,)
    np.testing.assert_array_equal(d, compute_outcome(b, a))
    assert np.all(d >= 0.0) and np.all(d <= 2.0 + 1e-12)  # sqrt(4) for 4 components in [0, 1]


@given(unit_blocks, unit_blocks, unit_blocks)
def test_outcome_triangle_inequality(a, b, c):
    ab = compute_outcome(a, b)
    bc = compute_outcome(b, c)
    ac = compute_outcome(a, c)
    assert np.all(ac <= ab + bc + 1e-9)
