"""Threaded debate corpus records and quote-response triple extraction.

Two line-delimited record files describe a corpus.  Each line is one JSON
object (JSON Lines).

Posts file, one record per post::

    {"id": "p12", "discussion_id": "d3", "debate_topic": "gun_control",
     "author": "alice", "position": 4, "parent_id": "p09", "text": "..."}

``parent_id`` is null for discussion roots.  ``position`` is the ordinal
of the post within its discussion and must be unique there; a parent must
be an earlier post in the same discussion.

Annotations file, one record per annotated quote-response pair::

    {"quote_post_id": "p09", "response_post_id": "p12",
     "reply_type": "nasty_nice", "mean_score": -2.3}

``mean_score`` is the annotator mean on a -5..5 scale where the negative
end is the first pole of the reply type (nasty, attacking, emotional,
questioning) and the positive end the second.  JSON Schema files for both
record shapes ship under ``tonefx/schemas/``.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

logger = logging.getLogger(__name__)

SCORE_MIN = -5.0
SCORE_MAX = 5.0


class CorpusError(ValueError):
    """A corpus file violated a structural invariant."""


class ReplyType(str, Enum):
    """Tone axis a response was annotated on (negative pole listed first)."""

    NASTY_NICE = "nasty_nice"
    ATTACKING_REASONABLE = "attacking_reasonable"
    EMOTIONAL_FACTUAL = "emotional_factual"
    QUESTIONING_ASSERTING = "questioning_asserting"


@dataclass(frozen=True)
class Post:
    id: str
    discussion_id: str
    debate_topic: str
    author: str
    position: int
    parent_id: str | None
    text: str


@dataclass(frozen=True)
class QuoteResponseAnnotation:
    quote_post_id: str
    response_post_id: str
    reply_type: ReplyType
    mean_score: float


@dataclass(frozen=True)
class TreatmentAssignment:
    """Binary treatment: 1 is the positive pole of the scale, 0 the negative."""

    value: int
    reply_type: ReplyType

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"treatment value must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class Triple:
    """A (p1, p2, p3) exchange: post, annotated reply, original author's follow-up."""

    id: str
    p1: Post
    p2: Post
    p3: Post
    debate_topic: str
    treatment: TreatmentAssignment


_POST_FIELDS = ("id", "discussion_id", "debate_topic", "author", "position", "text")
_ANNOTATION_FIELDS = ("quote_post_id", "response_post_id", "reply_type", "mean_score")


@dataclass
class PostCollection:
    """Read-only view of loaded posts with id and discussion indexes."""

    posts: tuple[Post, ...]
    record_errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    _by_id: dict[str, Post] = field(init=False, repr=False)
    _by_discussion: dict[str, list[Post]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        by_id: dict[str, Post] = {}
        for post in self.posts:
            if post.id in by_id:
                raise CorpusError(f"duplicate post id {post.id!r}")
            by_id[post.id] = post
        by_discussion: dict[str, list[Post]] = defaultdict(list)
        for post in self.posts:
            by_discussion[post.discussion_id].append(post)
        for discussion in by_discussion.values():
            discussion.sort(key=lambda p: p.position)
        self._by_id = by_id
        self._by_discussion = dict(by_discussion)

    def __len__(self) -> int:
        return len(self.posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self.posts)

    def __contains__(self, post_id: object) -> bool:
        return post_id in self._by_id

    def get(self, post_id: str) -> Post | None:
        return self._by_id.get(post_id)

    def discussion(self, discussion_id: str) -> list[Post]:
        """Posts of one discussion ordered by position."""
        return list(self._by_discussion.get(discussion_id, ()))

    @property
    def discussion_ids(self) -> list[str]:
        return sorted(self._by_discussion)

    @property
    def debate_topics(self) -> list[str]:
        return sorted({post.debate_topic for post in self.posts})


@dataclass
class AnnotationCollection:
    annotations: tuple[QuoteResponseAnnotation, ...]
    record_errors: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.annotations)

    def __iter__(self) -> Iterator[QuoteResponseAnnotation]:
        return iter(self.annotations)


def _check_str(record: dict, key: str) -> str:
    value = record[key]
    if not isinstance(value, str) or not value:
        raise ValueError(f"field {key!r} must be a non-empty string")
    return value


def _jsonl_records(path: Path, errors: list[str]) -> Iterator[tuple[int, dict]]:
    """Each JSON object of a line-delimited file, with its line number.

    Lines are decoded one at a time, so a line that is not valid UTF-8,
    not JSON or not an object is skipped and named in ``errors`` like
    any other bad record.  Blank lines are ignored.
    """
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            errors.append(f"line {lineno}: not valid UTF-8")
            continue
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(record, dict):
            errors.append(f"line {lineno}: record is not an object")
            continue
        yield lineno, record


def load_posts(path: str | Path) -> PostCollection:
    """Load a line-delimited posts file.

    Malformed records (lines that are not valid UTF-8, bad JSON, missing
    or mistyped fields, position collisions) are skipped and reported in
    ``record_errors`` with their line number.  A duplicate post id is
    fatal because identity is load-bearing downstream.  A parent_id that
    does not resolve to an earlier post in the same discussion yields a
    warning and the parent is treated as absent.  Record errors and
    warnings are also logged, once each, at WARNING level.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"posts file not found: {path}")

    posts: list[Post] = []
    errors: list[str] = []
    seen_ids: dict[str, int] = {}
    seen_positions: set[tuple[str, int]] = set()

    for lineno, record in _jsonl_records(path, errors):
        missing = [key for key in _POST_FIELDS if key not in record]
        if missing:
            errors.append(f"line {lineno}: missing required field {missing[0]!r}")
            continue
        try:
            post_id = _check_str(record, "id")
            discussion_id = _check_str(record, "discussion_id")
            debate_topic = _check_str(record, "debate_topic")
            author = _check_str(record, "author")
            position = record["position"]
            if isinstance(position, bool) or not isinstance(position, int) or position < 0:
                raise ValueError("field 'position' must be a nonnegative integer")
            text = record["text"]
            if not isinstance(text, str):
                raise ValueError("field 'text' must be a string")
            parent_id = record.get("parent_id")
            if parent_id is not None and not isinstance(parent_id, str):
                raise ValueError("field 'parent_id' must be a string or null")
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        if post_id in seen_ids:
            raise CorpusError(
                f"duplicate post id {post_id!r} at line {lineno} "
                f"(first seen at line {seen_ids[post_id]})"
            )
        seen_ids[post_id] = lineno
        if (discussion_id, position) in seen_positions:
            errors.append(
                f"line {lineno}: position {position} already used in "
                f"discussion {discussion_id!r}"
            )
            continue
        seen_positions.add((discussion_id, position))
        posts.append(
            Post(
                id=post_id,
                discussion_id=discussion_id,
                debate_topic=debate_topic,
                author=author,
                position=position,
                parent_id=parent_id,
                text=text,
            )
        )

    warnings: list[str] = []
    by_id = {post.id: post for post in posts}
    for post in posts:
        if post.parent_id is None:
            continue
        parent = by_id.get(post.parent_id)
        if parent is None:
            warnings.append(
                f"post {post.id!r}: parent {post.parent_id!r} not found, treated as absent"
            )
        elif parent.discussion_id != post.discussion_id or parent.position >= post.position:
            warnings.append(
                f"post {post.id!r}: parent {post.parent_id!r} is not an earlier post "
                "in the same discussion, treated as absent"
            )
    for message in errors:
        logger.warning("skipped post record: %s", message)
    for message in warnings:
        logger.warning("%s", message)
    return PostCollection(posts=tuple(posts), record_errors=tuple(errors), warnings=tuple(warnings))


def _resolved_parent(post: Post, posts: PostCollection) -> Post | None:
    """Parent post if it exists earlier in the same discussion, else None."""
    if post.parent_id is None:
        return None
    parent = posts.get(post.parent_id)
    if parent is None:
        return None
    if parent.discussion_id != post.discussion_id or parent.position >= post.position:
        return None
    return parent


def load_annotations(path: str | Path) -> AnnotationCollection:
    """Load a line-delimited annotations file, skipping malformed records.

    Malformed records (lines that are not valid UTF-8, bad JSON, missing
    or invalid fields) are skipped.  Each is reported in
    ``record_errors`` with its line number and logged once at WARNING
    level.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"annotations file not found: {path}")

    annotations: list[QuoteResponseAnnotation] = []
    errors: list[str] = []
    valid_types = {member.value for member in ReplyType}

    for lineno, record in _jsonl_records(path, errors):
        missing = [key for key in _ANNOTATION_FIELDS if key not in record]
        if missing:
            errors.append(f"line {lineno}: missing required field {missing[0]!r}")
            continue
        try:
            quote_post_id = _check_str(record, "quote_post_id")
            response_post_id = _check_str(record, "response_post_id")
            reply_type = record["reply_type"]
            if reply_type not in valid_types:
                raise ValueError(
                    f"field 'reply_type' must be one of {sorted(valid_types)}, "
                    f"got {reply_type!r}"
                )
            mean_score = record["mean_score"]
            if isinstance(mean_score, bool) or not isinstance(mean_score, (int, float)):
                raise ValueError("field 'mean_score' must be a number")
            mean_score = float(mean_score)
            if not SCORE_MIN <= mean_score <= SCORE_MAX:
                raise ValueError(
                    f"field 'mean_score' must lie in [{SCORE_MIN:g}, {SCORE_MAX:g}], "
                    f"got {mean_score!r}"
                )
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        annotations.append(
            QuoteResponseAnnotation(
                quote_post_id=quote_post_id,
                response_post_id=response_post_id,
                reply_type=ReplyType(reply_type),
                mean_score=mean_score,
            )
        )

    for message in errors:
        logger.warning("skipped annotation record: %s", message)
    return AnnotationCollection(annotations=tuple(annotations), record_errors=tuple(errors))


def write_posts(posts: Iterable[Post], path: str | Path) -> None:
    """Write posts as line-delimited records (inverse of load_posts)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for post in posts:
            record = {
                "id": post.id,
                "discussion_id": post.discussion_id,
                "debate_topic": post.debate_topic,
                "author": post.author,
                "position": post.position,
                "parent_id": post.parent_id,
                "text": post.text,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_annotations(annotations: Iterable[QuoteResponseAnnotation], path: str | Path) -> None:
    """Write annotations as line-delimited records (inverse of load_annotations)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for ann in annotations:
            record = {
                "quote_post_id": ann.quote_post_id,
                "response_post_id": ann.response_post_id,
                "reply_type": ann.reply_type.value,
                "mean_score": ann.mean_score,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def binarize_score(mean_score: float) -> int | None:
    """Map a mean annotation score to a binary treatment.

    Scores at or below -1 map to 0, scores at or above +1 map to 1, and
    scores strictly inside (-1, 1) return None: the annotators did not
    agree on a pole, so the pair is discarded.
    """
    if not SCORE_MIN <= mean_score <= SCORE_MAX:
        raise ValueError(
            f"mean score must lie in [{SCORE_MIN:g}, {SCORE_MAX:g}], got {mean_score!r}"
        )
    if mean_score <= -1.0:
        return 0
    if mean_score >= 1.0:
        return 1
    return None


def _find_p3(posts: PostCollection, p1: Post, p2: Post) -> Post | None:
    """Earliest follow-up by p1's author: a direct reply to p2 if one exists,
    otherwise the author's next post in the discussion after p2."""
    discussion = posts.discussion(p2.discussion_id)
    direct_reply: Post | None = None
    fallback: Post | None = None
    for post in discussion:
        if post.position <= p2.position or post.author != p1.author:
            continue
        parent = _resolved_parent(post, posts)
        if parent is not None and parent.id == p2.id and direct_reply is None:
            direct_reply = post
            break
        if fallback is None:
            fallback = post
    return direct_reply if direct_reply is not None else fallback


def extract_triples(
    posts: PostCollection,
    annotations: AnnotationCollection | Sequence[QuoteResponseAnnotation],
    reply_type: ReplyType,
) -> list[Triple]:
    """Build (p1, p2, p3) triples for one reply type.

    For each annotation of the requested type: p1 is the quoted post, p2
    the annotated response, and p3 the earliest later post by p1's author
    (preferring a direct reply to p2).  Annotations are dropped, with a
    logged reason, when a post is missing, the pair crosses discussions,
    positions do not increase, p1 and p2 share an author, the mean score
    falls in the discard band, or no p3 exists.  Output order follows
    annotation order, so extraction is deterministic.
    """
    reply_type = ReplyType(reply_type)
    triples: list[Triple] = []
    seen_ids: dict[str, int] = {}
    for ann in annotations:
        if ann.reply_type is not reply_type:
            continue
        p1 = posts.get(ann.quote_post_id)
        p2 = posts.get(ann.response_post_id)
        if p1 is None or p2 is None:
            missing = ann.quote_post_id if p1 is None else ann.response_post_id
            logger.info("dropped annotation (%s, %s): post %r not found",
                        ann.quote_post_id, ann.response_post_id, missing)
            continue
        if p1.discussion_id != p2.discussion_id:
            logger.info("dropped annotation (%s, %s): posts in different discussions",
                        p1.id, p2.id)
            continue
        if p1.position >= p2.position:
            logger.info("dropped annotation (%s, %s): response does not follow quote",
                        p1.id, p2.id)
            continue
        if p1.author == p2.author:
            logger.info("dropped annotation (%s, %s): self-reply", p1.id, p2.id)
            continue
        value = binarize_score(ann.mean_score)
        if value is None:
            logger.info("dropped annotation (%s, %s): mean score %.2f in discard band",
                        p1.id, p2.id, ann.mean_score)
            continue
        p3 = _find_p3(posts, p1, p2)
        if p3 is None:
            logger.info("dropped annotation (%s, %s): author %r never posts again",
                        p1.id, p2.id, p1.author)
            continue
        triple_id = f"{reply_type.value}:{p1.id}:{p2.id}"
        if triple_id in seen_ids:
            seen_ids[triple_id] += 1
            triple_id = f"{triple_id}~{seen_ids[triple_id]}"
        else:
            seen_ids[triple_id] = 1
        triples.append(
            Triple(
                id=triple_id,
                p1=p1,
                p2=p2,
                p3=p3,
                debate_topic=p1.debate_topic,
                treatment=TreatmentAssignment(value=value, reply_type=reply_type),
            )
        )
    return triples
