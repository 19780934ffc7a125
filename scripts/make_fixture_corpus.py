#!/usr/bin/env python3
"""Regenerate the committed test fixture corpus under tests/data/minicorpus.

The fixture is small enough to eyeball but exercises the extraction edge
cases: scores inside the discard band, annotated pairs whose quoted
author never returns to the thread, self-replies, and one dangling
parent pointer.  Counts printed at the end are frozen into the tests;
rerunning this script must reproduce them byte for byte.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tonefx.corpus import (
    Post,
    QuoteResponseAnnotation,
    ReplyType,
    extract_triples,
    load_annotations,
    load_posts,
    write_records,
)

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "minicorpus"

TOPIC_WORDS = {
    "gun control": (
        "gun guns weapon weapons rifle crime crimes police officer safety "
        "amendment militia regulation background checks violence shooting "
        "hunting owner carry permit ban firearm deaths statistics law laws"
    ).split(),
    "evolution": (
        "species fossil fossils record selection natural mutation gene genes "
        "darwin theory evidence biology organism adaptation ancestor common "
        "design creation science teacher school curriculum book earth age"
    ).split(),
}

FILLER = (
    "the a an is are was were be been it this that you i we they people "
    "think believe know argument point fact really just very not no yes "
    "agree disagree wrong right because reason clearly obviously simply"
).split()

TONE_WORDS = {
    1: "thanks kind fair good great appreciate respect honest welcome glad".split(),
    0: "stupid idiot dumb pathetic ridiculous awful nonsense liar insult hate".split(),
}


def make_text(rng: np.random.Generator, topic: str, tone: int | None, length: int) -> str:
    words = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            words.append(TOPIC_WORDS[topic][rng.integers(len(TOPIC_WORDS[topic]))])
        elif tone is not None and roll < 0.60:
            words.append(TONE_WORDS[tone][rng.integers(len(TONE_WORDS[tone]))])
        else:
            words.append(FILLER[rng.integers(len(FILLER))])
    return " ".join(words)


def main() -> None:
    rng = np.random.default_rng(20240817)
    posts: list[Post] = []
    annotations: list[QuoteResponseAnnotation] = []
    pid = 0

    def add_post(discussion, topic, author, position, parent, text) -> Post:
        nonlocal pid
        post = Post(f"post{pid:04d}", discussion, topic, author, position, parent, text)
        posts.append(post)
        pid += 1
        return post

    for t_index, topic in enumerate(sorted(TOPIC_WORDS)):
        for d in range(12):
            discussion = f"{topic.split()[0]}-{d:02d}"
            authors = [f"user{t_index}{d}{j}" for j in range(3)]
            thread: list[Post] = []
            for position in range(8):
                author = authors[position % 2] if position < 7 else authors[2]
                parent = thread[-1].id if thread else None
                tone = int(rng.random() < 0.5) if position % 2 == 1 else None
                post = add_post(
                    discussion, topic, author, position, parent,
                    make_text(rng, topic, tone, int(rng.integers(15, 40))),
                )
                thread.append(post)
            # annotated exchanges: quote at 0/2, response at 1/3, quoted
            # author returns at 2/4, so both triples resolve
            for quote_pos in (0, 2):
                score = float(np.round(rng.uniform(1.0, 4.0), 1))
                if rng.random() < 0.5:
                    score = -score
                annotations.append(
                    QuoteResponseAnnotation(
                        quote_post_id=thread[quote_pos].id,
                        response_post_id=thread[quote_pos + 1].id,
                        reply_type=ReplyType.NASTY_NICE,
                        mean_score=score,
                    )
                )
            if d % 3 == 0:
                magnitude = float(np.round(rng.uniform(1.0, 4.0), 1))
                annotations.append(
                    QuoteResponseAnnotation(
                        quote_post_id=thread[4].id,
                        response_post_id=thread[5].id,
                        reply_type=ReplyType.ATTACKING_REASONABLE,
                        mean_score=magnitude if d % 2 == 0 else -magnitude,
                    )
                )

    topic = "gun control"
    # discard band: score inside (-1, 1) must drop the pair
    d0 = "gun-edge-band"
    a = add_post(d0, topic, "edgeA", 0, None, make_text(rng, topic, None, 20))
    b = add_post(d0, topic, "edgeB", 1, a.id, make_text(rng, topic, 1, 20))
    add_post(d0, topic, "edgeA", 2, b.id, make_text(rng, topic, None, 20))
    annotations.append(
        QuoteResponseAnnotation(a.id, b.id, ReplyType.NASTY_NICE, 0.4)
    )

    # quoted author never returns: no third post to complete the triple
    d1 = "gun-edge-gone"
    a = add_post(d1, topic, "goneA", 0, None, make_text(rng, topic, None, 20))
    b = add_post(d1, topic, "goneB", 1, a.id, make_text(rng, topic, 0, 20))
    add_post(d1, topic, "goneC", 2, b.id, make_text(rng, topic, None, 20))
    annotations.append(
        QuoteResponseAnnotation(a.id, b.id, ReplyType.NASTY_NICE, -2.5)
    )

    # self reply: same author on both sides is not a valid exchange
    d2 = "gun-edge-self"
    a = add_post(d2, topic, "selfA", 0, None, make_text(rng, topic, None, 20))
    b = add_post(d2, topic, "selfA", 1, a.id, make_text(rng, topic, 1, 20))
    add_post(d2, topic, "selfB", 2, b.id, make_text(rng, topic, None, 20))
    annotations.append(
        QuoteResponseAnnotation(a.id, b.id, ReplyType.NASTY_NICE, 2.0)
    )

    # dangling parent pointer: loads with a warning, parent treated absent
    add_post(
        "gun-edge-dangle", topic, "dangleA", 0, "no-such-post",
        make_text(rng, topic, None, 20),
    )

    OUT.mkdir(parents=True, exist_ok=True)
    write_records(posts, OUT / "posts.jsonl")
    write_records(annotations, OUT / "annotations.jsonl")

    loaded_posts = load_posts(OUT / "posts.jsonl")
    loaded_annotations = load_annotations(OUT / "annotations.jsonl")
    print(f"posts: {len(loaded_posts)}")
    print(f"annotations: {len(loaded_annotations)}")
    print(f"load warnings: {list(loaded_posts.warnings)}")
    for reply_type in (ReplyType.NASTY_NICE, ReplyType.ATTACKING_REASONABLE):
        triples = extract_triples(loaded_posts, loaded_annotations, reply_type)
        treated = sum(t.treatment for t in triples)
        print(
            f"triples[{reply_type.value}]: {len(triples)} "
            f"(treated {treated}, control {len(triples) - treated})"
        )


if __name__ == "__main__":
    main()
