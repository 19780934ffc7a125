"""The synthetic corpus generator: its bytes and the worlds it accepts."""

import json

import numpy as np
import pytest
from scipy.special import expit

from tonefx.corpus import Post, QuoteResponseAnnotation, write_records
from tonefx.harness.synthetic import (
    CorpusWorld,
    SyntheticError,
    _synthetic_vocabulary,
    generate_corpus,
)
from tonefx.lexicon import (
    CategoryLexicon,
    CategoryType,
    categorize_token,
    compute_outcome,
    default_grouping_path,
    default_lexicon_path,
    load_lexicon,
    vectorize_forms,
)
from tonefx.topics import FormIndex, Tokenizer

_FILES = ("posts.jsonl", "annotations.jsonl", "truth.json")
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _reference_vocabulary(size, lexicon, rng):
    """_synthetic_vocabulary, checking each candidate with the whole tokenizer."""
    tokenizer = Tokenizer()
    words, seen = [], set()
    while len(words) < size:
        word = "".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), size=3))
        if word in seen:
            continue
        seen.add(word)
        if tokenizer(word) == [word] and not categorize_token(lexicon, word):
            words.append(word)
    return words


def _reference_injection(lexicon, grouping):
    """The first 12 exact lexicon entries with a positive category and no other type's."""
    positive = set(grouping.categories(CategoryType.POSITIVE_SENTIMENT))
    other = set(grouping.categories(CategoryType.NEGATIVE_SENTIMENT))
    other |= set(grouping.categories(CategoryType.LINGUISTIC_STYLE))
    chosen = [
        word
        for word, cats in sorted(lexicon.exact.items())
        if set(cats) & positive and not set(cats) & other
    ]
    return chosen[:12]


def _reference_compose(rng, theta, beta, vocab, injection, length, rate):
    """One post as a string: a ``choice`` per latent topic, then signal words, shuffled."""
    n_signal = int(rng.binomial(length, rate))
    per_topic = rng.multinomial(length - n_signal, theta)
    tokens = []
    for z, count in enumerate(per_topic):
        if count:
            tokens += [vocab[j] for j in rng.choice(beta.shape[1], size=count, p=beta[z])]
    tokens += [injection[i] for i in rng.integers(0, len(injection), size=n_signal)]
    order = rng.permutation(len(tokens))
    return " ".join(tokens[i] for i in order)


def _reference_corpus(world, n_triples, seed, out_dir):
    """generate_corpus with string posts, both p3 arms joined and truth rows
    from splitting the composed texts."""
    out_dir.mkdir(parents=True)
    lexicon, grouping = load_lexicon(default_lexicon_path(), default_grouping_path())
    rng = np.random.default_rng(seed)
    injection = _reference_injection(lexicon, grouping)
    vocab, beta = {}, {}
    for topic in world.debate_topics:
        vocab[topic] = _reference_vocabulary(world.vocab_size, lexicon, rng)
        beta[topic] = rng.dirichlet(
            np.full(world.vocab_size, world.topic_concentration), size=world.n_topics
        )
    direction = np.linspace(-1.0, 1.0, world.n_topics)
    posts, annotations, texts1, texts3 = [], [], [], {0: [], 1: []}
    n_treated = 0
    for i in range(n_triples):
        topic = world.debate_topics[i % len(world.debate_topics)]
        theta = rng.dirichlet(np.full(world.n_topics, world.mixture_concentration))
        stance = float(theta @ direction)
        lean = (stance + 1.0) / 2.0
        treated = int(rng.random() < expit(world.stance_to_treatment * stance))
        n_treated += treated
        rate1 = world.base_rate + world.rate_slope * lean
        args = (theta, beta[topic], vocab[topic], injection, world.doc_length)
        text1 = _reference_compose(rng, *args, rate1)
        text2 = _reference_compose(rng, *args, 0.0)
        text3 = {
            t: _reference_compose(
                rng,
                *args,
                rate1 + world.baseline_drift + world.confounded_drift * lean + world.effect * t,
            )
            for t in (0, 1)
        }
        base, discussion = 3 * i, f"d{i:05d}"
        p1 = Post(f"p{base}", discussion, topic, f"u{2 * i}", 0, None, text1)
        p2 = Post(f"p{base + 1}", discussion, topic, f"u{2 * i + 1}", 1, p1.id, text2)
        p3 = Post(f"p{base + 2}", discussion, topic, f"u{2 * i}", 2, p2.id, text3[treated])
        posts += [p1, p2, p3]
        annotations.append(
            QuoteResponseAnnotation(p1.id, p2.id, world.reply_type, 3.0 if treated else -3.0)
        )
        texts1.append(text1)
        for t in (0, 1):
            texts3[t].append(text3[t])
    forms = FormIndex()
    docs = [forms.split(text) for text in (*texts1, *texts3[0], *texts3[1])]
    p1_rows, *p3_rows = np.split(vectorize_forms(lexicon, grouping, docs, list(forms)), 3)
    true_ate = {}
    for ctype in CategoryType:
        columns = grouping.columns(ctype)
        y0, y1 = (compute_outcome(p1_rows[:, columns], p3_rows[t][:, columns]) for t in (0, 1))
        true_ate[ctype.value] = float(np.mean(y1 - y0))
    write_records(posts, out_dir / "posts.jsonl")
    write_records(annotations, out_dir / "annotations.jsonl")
    truth = {
        "n_treated": n_treated,
        "n_triples": n_triples,
        "reply_type": world.reply_type.value,
        "seed": seed,
        "true_ate": true_ate,
    }
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("world,n_triples,seed", [
    (CorpusWorld(), 40, 5),
    (CorpusWorld(vocab_size=2000), 20, 3),
    (CorpusWorld(n_topics=3, debate_topics=("gun control", "climate change", "abortion")), 30, 2),
    (CorpusWorld(effect=0.05), 30, 11),
    (CorpusWorld(), 240, 100),
], ids=["default", "wide-vocab", "three-topics", "positive-effect", "benchmark-sized"])
def test_corpus_bytes_match_reference(tmp_path, world, n_triples, seed):
    generate_corpus(world, n_triples, seed=seed, out_dir=tmp_path / "corpus")
    _reference_corpus(world, n_triples, seed, tmp_path / "reference")
    for name in _FILES:
        assert (tmp_path / "corpus" / name).read_bytes() == (
            tmp_path / "reference" / name
        ).read_bytes(), name


@pytest.mark.parametrize("size", [5, 60, 2000])
def test_vocabulary_matches_reference(size):
    # same words and same generator state afterwards, so every later draw
    # of a corpus stays the same too
    lexicon, _ = load_lexicon(default_lexicon_path(), default_grouping_path())
    for seed in range(5):
        drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _synthetic_vocabulary(size, lexicon, drawn) == _reference_vocabulary(
            size, lexicon, reference
        )
        assert drawn.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("starts", [
    sorted({s[0] for s in _SYLLABLES}),
    # a few of the 500 candidates start "bu" and are kept, so later rounds draw fewer
    [s for s in _SYLLABLES if s != "bu"],
], ids=["every-first-letter", "all-but-bu"])
def test_vocabulary_gives_up_after_fifty_candidates_per_word(starts):
    lexicon = CategoryLexicon(exact={}, prefixes={s: frozenset({"posemo"}) for s in starts})
    rng, expected = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(SyntheticError, match="could not generate enough clean vocabulary words"):
        _synthetic_vocabulary(10, lexicon, rng)
    for _ in range(50 * 10):
        expected.integers(0, len(_SYLLABLES), size=3)
    assert rng.bit_generator.state == expected.bit_generator.state


def test_vectorize_forms_same_after_vocabulary_check():
    shipped, grouping = load_lexicon(default_lexicon_path(), default_grouping_path())

    def lexicon():
        # words starting "b" or "d" match, so the check also meets rejected words
        prefixes = {**shipped.prefixes, "b": frozenset({"posemo"}), "d": frozenset({"negemo"})}
        return CategoryLexicon(exact=shipped.exact, prefixes=prefixes)

    checked, fresh = lexicon(), lexicon()
    _synthetic_vocabulary(60, checked, np.random.default_rng(0))
    # every candidate the check met, kept or rejected, and some it did not
    syllables = np.random.default_rng(0).integers(0, len(_SYLLABLES), size=3 * 120)
    candidates = ["".join(_SYLLABLES[i] for i in syllables[j : j + 3]) for j in range(0, 360, 3)]
    forms = FormIndex()
    texts = [" ".join(candidates[:60]) + " happy good i", "", " ".join(candidates[40:]), "sad"]
    docs = [forms.split(text) for text in texts]
    np.testing.assert_array_equal(
        vectorize_forms(checked, grouping, docs, list(forms)),
        vectorize_forms(fresh, grouping, docs, list(forms)),
    )


@pytest.mark.parametrize("size", [5, 60, 2000])
def test_cdf_search_draws_as_choice(size):
    # the generator draws each latent topic's words by this search; a numpy
    # whose choice draws otherwise would change every corpus
    for seed in range(20):
        beta = np.random.default_rng(seed).dirichlet(np.full(size, 0.1), size=3)
        cdf = beta.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        searched, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        for z, count in enumerate((1, 7, 200)):
            drawn = cdf[z].searchsorted(searched.random(count), side="right")
            np.testing.assert_array_equal(drawn, chosen.choice(size, size=count, p=beta[z]))
        assert searched.bit_generator.state == chosen.bit_generator.state


@pytest.mark.parametrize("field,value", [
    ("debate_topics", ()),
    ("debate_topics", ("a", "a")),
    ("debate_topics", ("a", "")),
    ("doc_length", 0),
    ("doc_length", -1),
    ("topic_concentration", -1.0),
    ("mixture_concentration", 0.0),
    ("n_topics", 2.5),
    ("n_topics", 1),
    ("vocab_size", 5),
    ("vocab_size", 70**3 + 1),
    ("reply_type", "nasty_nice"),
])
def test_world_rejects_settings_it_cannot_generate(field, value):
    with pytest.raises(SyntheticError, match=f"^{field} "):
        CorpusWorld(**{field: value})


@pytest.mark.parametrize("n_triples,seed,name", [
    (12.5, 1, "n_triples"),
    (True, 1, "n_triples"),
    ("40", 1, "n_triples"),
    (40, 1.0, "seed"),
])
def test_generate_corpus_rejects_non_integer_arguments(tmp_path, n_triples, seed, name):
    with pytest.raises(SyntheticError, match=f"^{name} must be an integer"):
        generate_corpus(CorpusWorld(), n_triples, seed=seed, out_dir=tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()
