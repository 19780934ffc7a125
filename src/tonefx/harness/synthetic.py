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
    categorize_token,
    compute_outcome,
    default_grouping_path,
    default_lexicon_path,
    load_lexicon,
    vectorize_forms,
)
from ..topics import FormIndex, Tokenizer


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
        if self.n_topics < 2 or self.vocab_size < self.n_topics:
            raise SyntheticError("need n_topics >= 2 and vocab_size >= n_topics")
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


_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _synthetic_vocabulary(
    size: int, lexicon: CategoryLexicon, rng: np.random.Generator
) -> list[str]:
    """Deterministic nonsense words that survive tokenization unchanged
    and match no lexicon category."""
    tokenizer = Tokenizer()
    words: list[str] = []
    seen: set[str] = set()
    attempts = 0
    while len(words) < size:
        attempts += 1
        if attempts > 50 * size:
            raise SyntheticError("could not generate enough clean vocabulary words")
        parts = rng.integers(0, len(_SYLLABLES), size=3)
        word = "".join(_SYLLABLES[i] for i in parts)
        if word in seen:
            continue
        seen.add(word)
        if tokenizer(word) != [word]:
            continue
        if categorize_token(lexicon, word):
            continue
        words.append(word)
    return words


def _injection_words(
    lexicon: CategoryLexicon, grouping: CategoryTypeGrouping, limit: int = 12
) -> list[str]:
    """Exact lexicon entries that signal positive sentiment and nothing else."""
    positive = set(grouping.categories(CategoryType.POSITIVE_SENTIMENT))
    other = {
        c
        for ctype in (CategoryType.NEGATIVE_SENTIMENT, CategoryType.LINGUISTIC_STYLE)
        for c in grouping.categories(ctype)
    }
    chosen = [
        word
        for word, cats in sorted(lexicon.exact.items())
        if set(cats) & positive and not set(cats) & other
    ]
    if len(chosen) < 3:
        raise SyntheticError("lexicon offers too few pure positive sentiment words")
    return chosen[:limit]


def _compose(
    rng: np.random.Generator,
    theta: np.ndarray,
    beta: np.ndarray,
    vocab: list[str],
    injection: list[str],
    length: int,
    rate: float,
) -> str:
    """One post body: topic words with signal words mixed in at ``rate``."""
    n_signal = int(rng.binomial(length, rate))
    per_topic = rng.multinomial(length - n_signal, theta)
    tokens: list[str] = []
    for z, count in enumerate(per_topic):
        if count:
            tokens += [vocab[j] for j in rng.choice(beta.shape[1], size=count, p=beta[z])]
    tokens += [injection[i] for i in rng.integers(0, len(injection), size=n_signal)]
    order = rng.permutation(len(tokens))
    return " ".join(tokens[i] for i in order)


def generate_corpus(
    world: CorpusWorld,
    n_triples: int,
    seed: int,
    out_dir: str | Path,
) -> CorpusTruth:
    """Write posts.jsonl, annotations.jsonl and truth.json under out_dir.

    Both potential versions of each p3 are generated; the factual one is
    written to the corpus and both feed the reported sample truth.
    """
    if n_triples < 10:
        raise SyntheticError(f"need at least 10 triples, got {n_triples}")
    if not 0 <= seed < 2**63:
        raise SyntheticError(f"seed must lie in [0, 2**63), got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lexicon, grouping = load_lexicon(default_lexicon_path(), default_grouping_path())
    rng = np.random.default_rng(seed)
    injection = _injection_words(lexicon, grouping)

    vocab_by_topic = {}
    beta_by_topic = {}
    for debate_topic in world.debate_topics:
        vocab_by_topic[debate_topic] = _synthetic_vocabulary(world.vocab_size, lexicon, rng)
        beta_by_topic[debate_topic] = rng.dirichlet(
            np.full(world.vocab_size, world.topic_concentration), size=world.n_topics
        )

    stance_direction = np.linspace(-1.0, 1.0, world.n_topics)
    posts: list[Post] = []
    annotations: list[QuoteResponseAnnotation] = []
    # each text1 and both potential text3 arms, for their category rows
    texts1: list[str] = []
    texts3: dict[int, list[str]] = {0: [], 1: []}
    n_treated = 0
    for i in range(n_triples):
        debate_topic = world.debate_topics[i % len(world.debate_topics)]
        vocab = vocab_by_topic[debate_topic]
        beta = beta_by_topic[debate_topic]
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
        text1 = _compose(rng, theta, beta, vocab, injection, world.doc_length, rate1)
        text2 = _compose(rng, theta, beta, vocab, injection, world.doc_length, 0.0)
        text3 = {
            t: _compose(
                rng, theta, beta, vocab, injection, world.doc_length, rate1 + gap[t]
            )
            for t in (0, 1)
        }

        base = i * 3
        discussion = f"d{i:05d}"
        author1, author2 = f"u{2 * i}", f"u{2 * i + 1}"
        p1 = Post(f"p{base}", discussion, debate_topic, author1, 0, None, text1)
        p2 = Post(f"p{base + 1}", discussion, debate_topic, author2, 1, p1.id, text2)
        p3 = Post(
            f"p{base + 2}", discussion, debate_topic, author1, 2, p2.id, text3[treated]
        )
        posts += [p1, p2, p3]
        annotations.append(
            QuoteResponseAnnotation(
                quote_post_id=p1.id,
                response_post_id=p2.id,
                reply_type=world.reply_type,
                mean_score=3.0 if treated else -3.0,
            )
        )
        texts1.append(text1)
        for t in (0, 1):
            texts3[t].append(text3[t])

    forms = FormIndex()
    docs = [forms.split(text) for text in (*texts1, *texts3[0], *texts3[1])]
    p1_rows, *p3_rows = np.split(vectorize_forms(lexicon, grouping, docs, list(forms)), 3)
    true_ate: dict[str, float] = {}
    for ctype in CategoryType:
        columns = grouping.columns(ctype)
        y0, y1 = (compute_outcome(p1_rows[:, columns], p3_rows[t][:, columns]) for t in (0, 1))
        true_ate[ctype.value] = float(np.mean(y1 - y0))

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
