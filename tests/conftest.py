"""Shared fixtures: the committed mini corpus and the packaged lexicon."""

from pathlib import Path

import numpy as np
import pytest

from tonefx import estimators, inference
from tonefx.corpus import Post, load_annotations, load_posts
from tonefx.lexicon import default_grouping_path, default_lexicon_path, load_lexicon

DATA_DIR = Path(__file__).parent / "data"
MINICORPUS = DATA_DIR / "minicorpus"


@pytest.fixture(scope="session")
def minicorpus_dir() -> Path:
    return MINICORPUS


@pytest.fixture(scope="session")
def posts():
    return load_posts(MINICORPUS / "posts.jsonl")


@pytest.fixture(scope="session")
def annotations():
    return load_annotations(MINICORPUS / "annotations.jsonl")


@pytest.fixture(scope="session")
def lexicon_grouping():
    return load_lexicon(default_lexicon_path(), default_grouping_path())


def make_post(
    id: str,
    position: int,
    author: str = "a",
    discussion_id: str = "d1",
    debate_topic: str = "gun control",
    parent_id: str | None = None,
    text: str = "some text",
) -> Post:
    """Terse post factory for hand-built discussions."""
    return Post(
        id=id,
        discussion_id=discussion_id,
        debate_topic=debate_topic,
        author=author,
        position=position,
        parent_id=parent_id,
        text=text,
    )


def stall_line_search(monkeypatch, treatments) -> None:
    """Fail every propensity line search of the samples with these treatments.

    Starting points (all-zero parameters) are scored truly and every
    candidate step of a matching sample loses, so its fit stops at zero
    parameters; samples with other treatments are fit as usual.
    """
    real = inference.logistic_loss_and_grad
    target = np.asarray(treatments, dtype=float)

    def stalling(params, features, t, regularization):
        loss, grad = real(params, features, t, regularization)
        hit = np.all(t == target, axis=-1) & np.any(params != 0, axis=-1)
        return loss + hit, grad

    monkeypatch.setattr(inference, "logistic_loss_and_grad", stalling)


def skip_odd_first_unit(monkeypatch) -> None:
    """Skip every bootstrap resample whose first drawn unit is odd (stateless per replicate)."""
    draw = estimators._resample_indices

    def skip(rng, treatments, max_redraws):
        idx = draw(rng, treatments, max_redraws)
        return None if idx[0] % 2 else idx

    monkeypatch.setattr(estimators, "_resample_indices", skip)
