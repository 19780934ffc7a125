"""Synthetic data generators with known treatment effects.

Two worlds are provided.  The tabular world draws standard normal
features, a logistic treatment and a linear outcome, so the true effect
is the difference of the arm intercepts; it exercises the estimators
directly.  The corpus world writes a full synthetic debate corpus to
disk and is the end-to-end check that adjustment through inferred topic
proportions beats adjustment through debate-topic membership alone.

In the corpus world each triple has a latent topic mixture whose
projection onto a fixed direction acts as the author's stance.  Stance
drives both the tone treatment and the drift in the responder's later
word choice, which confounds the naive contrast.  Stance varies within
each debate topic, so the topics-only adjustment cannot remove this
bias while the full adjustment can.  The injected signal words come
from the positive sentiment categories of the shipped lexicon, and the
reported per-category truths are sample averages of the two generated
potential outcomes, so an estimate can be compared to truth without
further simulation error.

Each post is built as an array of word ids.  Its topic words are drawn
per latent topic from that topic's cumulative word distribution, with
the same draws from the generator that ``Generator.choice`` would make,
and its signal words take the ids after the vocabulary's.  Only the
posts written to the corpus are joined into text; the counterfactual
p3 never is.  Every vocabulary and injection word is its own single
``split_words`` form, so a post's ids are exactly the forms of its
text, and the truth's category rows are counted from those ids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from ..corpus import Post, QuoteResponseAnnotation, ReplyType, write_records
from ..lexicon import (
    CategoryLexicon,
    CategoryType,
    CategoryTypeGrouping,
    compute_outcome,
    default_grouping_path,
    default_lexicon_path,
    load_lexicon,
    vectorize_forms,
)
from ..topics import FormIndex, normalize_form, split_words


class SyntheticError(ValueError):
    """Impossible synthetic world parameters."""


@dataclass(frozen=True)
class TabularWorld:
    """Linear-logistic world: Z is N(0, I), so the true effect is the
    intercept gap between arms."""

    treatment_intercept: float = 0.0
    treatment_slopes: tuple[float, ...] = (0.6, 0.6)
    control_intercept: float = 0.0
    treated_intercept: float = 1.5
    control_slopes: tuple[float, ...] = (1.0, 1.0)
    treated_slopes: tuple[float, ...] = (1.0, 1.0)
    noise: float = 1.0

    def __post_init__(self) -> None:
        if len(self.control_slopes) != len(self.treatment_slopes) or len(
            self.treated_slopes
        ) != len(self.treatment_slopes):
            raise SyntheticError("slope vectors must share one dimension")
        if self.noise < 0:
            raise SyntheticError("noise must be nonnegative")

    @property
    def dimension(self) -> int:
        return len(self.treatment_slopes)

    @property
    def true_ate(self) -> float:
        return self.treated_intercept - self.control_intercept


@dataclass(eq=False)
class TabularSample:
    features: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray


def generate_tabular(world: TabularWorld, n: int, seed: int) -> TabularSample:
    """Draw one sample with the factual outcome of each unit."""
    if n < 2:
        raise SyntheticError(f"need at least 2 units, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, world.dimension))
    scores = world.treatment_intercept + z @ np.asarray(world.treatment_slopes)
    t = (rng.random(n) < expit(scores)).astype(int)
    noise = rng.normal(size=n) * world.noise
    y0 = world.control_intercept + z @ np.asarray(world.control_slopes) + noise
    y1 = world.treated_intercept + z @ np.asarray(world.treated_slopes) + noise
    y = np.where(t == 1, y1, y0)
    return TabularSample(features=z, treatments=t, outcomes=y)


# a vocabulary word is three of these, so at most 70**3 words are distinct
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


@dataclass(frozen=True)
class CorpusWorld:
    """Generator parameters for the synthetic debate corpus."""

    n_topics: int = 6
    vocab_size: int = 60
    doc_length: int = 200
    mixture_concentration: float = 0.2
    topic_concentration: float = 0.1
    stance_to_treatment: float = 2.0
    base_rate: float = 0.05
    rate_slope: float = 0.25
    baseline_drift: float = 0.12
    confounded_drift: float = 0.3
    effect: float = -0.1
    reply_type: ReplyType = ReplyType.NASTY_NICE
    debate_topics: tuple[str, ...] = ("gun control", "climate change")

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SyntheticError(f"{name} must be finite, got {value}")
        for name, least in (("n_topics", 2), ("vocab_size", self.n_topics), ("doc_length", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise SyntheticError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.vocab_size > len(_SYLLABLES) ** 3:
            raise SyntheticError(
                f"vocab_size must be at most {len(_SYLLABLES) ** 3}, the number of distinct"
                f" three-syllable words, got {self.vocab_size}"
            )
        for name in ("mixture_concentration", "topic_concentration"):
            if not getattr(self, name) > 0:
                raise SyntheticError(f"{name} must be positive, got {getattr(self, name)}")
        if not isinstance(self.reply_type, ReplyType):
            raise SyntheticError(f"reply_type must be a ReplyType, got {self.reply_type!r}")
        topics = self.debate_topics
        if not topics or not all(isinstance(topic, str) and topic for topic in topics):
            raise SyntheticError(
                f"debate_topics must be one or more nonempty names, got {topics!r}"
            )
        if len(set(topics)) != len(topics):
            raise SyntheticError(f"debate_topics must be distinct, got {topics!r}")
        if self.baseline_drift + self.effect < 0:
            raise SyntheticError(
                "baseline_drift must exceed |effect| so the rate gap keeps one sign"
            )
        top = (
            self.base_rate
            + self.rate_slope
            + self.baseline_drift
            + self.confounded_drift
            + max(self.effect, 0.0)
        )
        if top >= 0.95:
            raise SyntheticError(f"peak injection rate {top:.2f} is too close to 1")
        # a rate is linear in the lean, so it is lowest at a lean of 0 or 1
        drift = self.baseline_drift + min(self.effect, 0.0)
        rises = (0.0, self.rate_slope, drift, drift + self.rate_slope + self.confounded_drift)
        bottom = self.base_rate + min(rises)
        if bottom < 0:
            raise SyntheticError(f"lowest injection rate {bottom:.2f} is below 0")


@dataclass(eq=False)
class CorpusTruth:
    """Ground truth shipped alongside a generated corpus."""

    true_ate: dict[str, float]
    n_triples: int
    n_treated: int
    reply_type: str
    seed: int


def _synthetic_vocabulary(
    size: int, lexicon: CategoryLexicon, rng: np.random.Generator
) -> list[str]:
    """Deterministic nonsense words that survive tokenization unchanged
    and match no lexicon category.

    A candidate is three syllables.  It is kept when it is new, when
    ``normalize_form`` returns it unchanged (a word of syllables splits
    to itself) and when ``lexicon.categories`` finds no category; the
    lexicon memoizes each result, so the corpus's truth rows do not
    categorize these words again.  After 50 candidates per word the
    vocabulary gives up.

    Each round draws the syllables of one candidate per word still
    missing in a single ``rng.integers`` call.  A round can keep at most
    all its candidates, so it never draws one that checking candidates
    one at a time would not have drawn.  Drawing ``3 * n`` integers at
    once gives the same values, and leaves the generator in the same
    state, as ``n`` draws of 3: the bit generator keeps any unused half
    of a 64-bit draw between calls (checked on numpy 2.4.6 by
    ``tests/test_synthetic.py``).  So the words and every later draw of
    a corpus are those of the one-at-a-time loop.
    """
    words: list[str] = []
    seen: set[str] = set()
    attempts = 0
    while len(words) < size:
        batch = min(size - len(words), 50 * size - attempts)
        if batch == 0:
            raise SyntheticError("could not generate enough clean vocabulary words")
        attempts += batch
        parts = rng.integers(0, len(_SYLLABLES), size=3 * batch).tolist()
        for j in range(0, 3 * batch, 3):
            word = _SYLLABLES[parts[j]] + _SYLLABLES[parts[j + 1]] + _SYLLABLES[parts[j + 2]]
            if word in seen:
                continue
            seen.add(word)
            if normalize_form(word) == word and not lexicon.categories(word):
                words.append(word)
    return words


def _injection_words(
    lexicon: CategoryLexicon, grouping: CategoryTypeGrouping, limit: int = 12
) -> list[str]:
    """Exact lexicon entries that signal positive sentiment and nothing else.

    Each is its own single ``split_words`` form, so a composed post's
    word ids are exactly the forms that splitting its text would give.
    """
    positive = set(grouping.categories(CategoryType.POSITIVE_SENTIMENT))
    other = {
        c
        for ctype in (CategoryType.NEGATIVE_SENTIMENT, CategoryType.LINGUISTIC_STYLE)
        for c in grouping.categories(ctype)
    }
    chosen = [
        word
        for word, cats in sorted(lexicon.exact.items())
        if set(cats) & positive and not set(cats) & other and split_words(word) == [word]
    ]
    if len(chosen) < 3:
        raise SyntheticError("lexicon offers too few pure positive sentiment words")
    return chosen[:limit]


def _compose(
    rng: np.random.Generator,
    theta: np.ndarray,
    cdf: np.ndarray,
    n_injection: int,
    length: int,
    rate: float,
) -> np.ndarray:
    """One post body as word ids: topic words with signal words mixed in at ``rate``.

    Row z of ``cdf`` is latent topic z's cumulative word distribution,
    normalized to end at 1; each of z's words is the first id whose
    entry exceeds one uniform draw, which is how ``Generator.choice``
    draws with ``p``, so a post takes the same draws from ``rng``.  The
    ``n_injection`` signal words have the ids after the vocabulary's.
    The caller joins only the posts it writes into text, and counts the
    truth's category rows from the ids, which ``_injection_words`` and
    ``_synthetic_vocabulary`` make the text's ``split_words`` forms.
    """
    n_signal = int(rng.binomial(length, rate))
    per_topic = rng.multinomial(length - n_signal, theta)
    parts = [
        cdf[z].searchsorted(rng.random(count), side="right")
        for z, count in enumerate(per_topic)
        if count
    ]
    parts.append(cdf.shape[1] + rng.integers(0, n_injection, size=n_signal))
    ids = np.concatenate(parts)
    return ids[rng.permutation(len(ids))]


def generate_corpus(
    world: CorpusWorld,
    n_triples: int,
    seed: int,
    out_dir: str | Path,
) -> CorpusTruth:
    """Write posts.jsonl, annotations.jsonl and truth.json under out_dir.

    Both potential versions of each p3 are generated; the factual one is
    written to the corpus and both feed the reported sample truth.
    ``out_dir`` is created only once the corpus is complete, so a call
    that is rejected or fails leaves no directory behind.
    """
    for name, value in (("n_triples", n_triples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SyntheticError(f"{name} must be an integer, got {value!r}")
    if n_triples < 10:
        raise SyntheticError(f"need at least 10 triples, got {n_triples}")
    if not 0 <= seed < 2**63:
        raise SyntheticError(f"seed must lie in [0, 2**63), got {seed}")
    lexicon, grouping = load_lexicon(default_lexicon_path(), default_grouping_path())
    rng = np.random.default_rng(seed)
    injection = _injection_words(lexicon, grouping)

    # per debate topic: its words' cumulative distributions, and the form id
    # of each of its word ids (vocabulary, then injection words)
    forms = FormIndex()
    cdf_by_topic = {}
    form_ids_by_topic = {}
    for debate_topic in world.debate_topics:
        vocab = _synthetic_vocabulary(world.vocab_size, lexicon, rng)
        beta = rng.dirichlet(
            np.full(world.vocab_size, world.topic_concentration), size=world.n_topics
        )
        cdf = beta.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        cdf_by_topic[debate_topic] = cdf
        form_ids_by_topic[debate_topic] = np.array(
            [forms[word] for word in vocab + injection], dtype=np.int32
        )
    words = np.array(list(forms), dtype=object)

    stance_direction = np.linspace(-1.0, 1.0, world.n_topics)
    posts: list[Post] = []
    annotations: list[QuoteResponseAnnotation] = []
    # the form ids of each p1 and of both potential p3 arms, for their category rows
    docs1: list[np.ndarray] = []
    docs3: dict[int, list[np.ndarray]] = {0: [], 1: []}
    n_treated = 0
    for i in range(n_triples):
        debate_topic = world.debate_topics[i % len(world.debate_topics)]
        cdf = cdf_by_topic[debate_topic]
        form_ids = form_ids_by_topic[debate_topic]
        theta = rng.dirichlet(np.full(world.n_topics, world.mixture_concentration))
        stance = float(theta @ stance_direction)
        lean = (stance + 1.0) / 2.0
        treated = int(rng.random() < expit(world.stance_to_treatment * stance))
        n_treated += treated

        rate1 = world.base_rate + world.rate_slope * lean
        gap = {
            t: world.baseline_drift + world.confounded_drift * lean + world.effect * t
            for t in (0, 1)
        }
        doc1, doc2, doc3_0, doc3_1 = (
            form_ids[_compose(rng, theta, cdf, len(injection), world.doc_length, rate)]
            for rate in (rate1, 0.0, rate1 + gap[0], rate1 + gap[1])
        )
        text1, text2, text3 = (
            " ".join(words[doc].tolist()) for doc in (doc1, doc2, (doc3_0, doc3_1)[treated])
        )

        base = i * 3
        discussion = f"d{i:05d}"
        author1, author2 = f"u{2 * i}", f"u{2 * i + 1}"
        p1 = Post(f"p{base}", discussion, debate_topic, author1, 0, None, text1)
        p2 = Post(f"p{base + 1}", discussion, debate_topic, author2, 1, p1.id, text2)
        p3 = Post(f"p{base + 2}", discussion, debate_topic, author1, 2, p2.id, text3)
        posts += [p1, p2, p3]
        annotations.append(
            QuoteResponseAnnotation(
                quote_post_id=p1.id,
                response_post_id=p2.id,
                reply_type=world.reply_type,
                mean_score=3.0 if treated else -3.0,
            )
        )
        docs1.append(doc1)
        docs3[0].append(doc3_0)
        docs3[1].append(doc3_1)

    docs = [*docs1, *docs3[0], *docs3[1]]
    p1_rows, *p3_rows = np.split(vectorize_forms(lexicon, grouping, docs, list(forms)), 3)
    true_ate: dict[str, float] = {}
    for ctype in CategoryType:
        columns = grouping.columns(ctype)
        y0, y1 = (compute_outcome(p1_rows[:, columns], p3_rows[t][:, columns]) for t in (0, 1))
        true_ate[ctype.value] = float(np.mean(y1 - y0))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(posts, out_dir / "posts.jsonl")
    write_records(annotations, out_dir / "annotations.jsonl")
    truth = CorpusTruth(
        true_ate=true_ate,
        n_triples=n_triples,
        n_treated=n_treated,
        reply_type=world.reply_type.value,
        seed=seed,
    )
    (out_dir / "truth.json").write_text(
        json.dumps(vars(truth), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return truth
