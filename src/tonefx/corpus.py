"""Threaded debate corpus records and quote-response triple extraction.

Two line-delimited record files describe a corpus.  Each line is one JSON
object (JSON Lines).

Posts file, one record per post::

    {"id": "p12", "discussion_id": "d3", "debate_topic": "gun_control",
     "author": "alice", "position": 4, "parent_id": "p09", "text": "..."}

``parent_id`` is null or absent for discussion roots.  ``position`` is the ordinal
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
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .harness.records import decode_json, decode_text, read_input, record_values

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
class Triple:
    """A (p1, p2, p3) exchange: post, annotated reply, original author's follow-up.

    ``treatment`` is 1 for the positive pole of the reply type's scale and
    0 for the negative one; the id starts with the reply type.
    """

    id: str
    p1: Post
    p2: Post
    p3: Post
    debate_topic: str
    treatment: int


# the fields a record must carry; a root post may leave parent_id out
_POST_FIELDS = tuple(f.name for f in fields(Post) if f.name != "parent_id")
_ANNOTATION_FIELDS = tuple(f.name for f in fields(QuoteResponseAnnotation))


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


def _check_nonempty(values: dict[str, Any], names: Sequence[str]) -> None:
    for name in names:
        if not values[name]:
            raise ValueError(f"{name} must not be empty")


def _jsonl_records(path: str | Path, errors: list[str]) -> Iterator[tuple[int, dict]]:
    """Each JSON object of a line-delimited file, with its line number.

    Lines are decoded one at a time, so a line that is not valid UTF-8,
    not JSON or not an object is skipped and named in ``errors`` like
    any other bad record.  Blank lines are ignored.  A missing file
    raises FileNotFoundError, one that cannot be read a CorpusError.
    """
    try:
        data = read_input(path)
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            # decoded before it is stripped, so a line of Unicode spaces is blank
            line = decode_text(raw).strip()
            if not line:
                continue
            record = decode_json(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        yield lineno, record


def load_posts(path: str | Path) -> PostCollection:
    """Load a line-delimited posts file.

    Malformed records (lines that are not valid UTF-8, bad JSON, missing
    or mistyped fields, position collisions) are skipped and reported in
    ``record_errors`` with their line number.  A duplicate post id is
    fatal because identity is load-bearing downstream.  A parent_id that
    does not resolve to an earlier post in the same discussion yields a
    message in ``warnings`` and the parent is treated as absent.  Nothing
    is logged: the collection is the only record of these events.
    """
    posts: list[Post] = []
    errors: list[str] = []
    seen_ids: dict[str, int] = {}
    seen_positions: set[tuple[str, int]] = set()

    for lineno, record in _jsonl_records(path, errors):
        missing = [key for key in _POST_FIELDS if key not in record]
        if missing:
            errors.append(f"line {lineno}: missing required field {missing[0]!r}")
            continue
        # JSON Schema's integer includes an integral float such as 1.0
        position = record["position"]
        if isinstance(position, float) and position.is_integer():
            record["position"] = int(position)
        try:
            values = record_values(Post, record)
            _check_nonempty(values, ("id", "discussion_id", "debate_topic", "author"))
            if values["position"] < 0:
                raise ValueError(f"position must be nonnegative, got {values['position']}")
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        values.setdefault("parent_id", None)
        post = Post(**values)
        if post.id in seen_ids:
            raise CorpusError(
                f"duplicate post id {post.id!r} at line {lineno} "
                f"(first seen at line {seen_ids[post.id]})"
            )
        seen_ids[post.id] = lineno
        if (post.discussion_id, post.position) in seen_positions:
            errors.append(
                f"line {lineno}: position {post.position} already used in "
                f"discussion {post.discussion_id!r}"
            )
            continue
        seen_positions.add((post.discussion_id, post.position))
        posts.append(post)

    warnings: list[str] = []
    by_id = {post.id: post for post in posts}
    for post in posts:
        if post.parent_id is None:
            continue
        fault = _parent_fault(post, by_id.get(post.parent_id))
        if fault:
            warnings.append(
                f"post {post.id!r}: parent {post.parent_id!r} {fault}, treated as absent"
            )
    return PostCollection(posts=tuple(posts), record_errors=tuple(errors), warnings=tuple(warnings))


def _parent_fault(post: Post, parent: Post | None) -> str | None:
    """Why ``parent`` is no earlier post in the discussion of ``post``, or None."""
    if parent is None:
        return "not found"
    if parent.discussion_id != post.discussion_id or parent.position >= post.position:
        return "is not an earlier post in the same discussion"
    return None


def load_annotations(path: str | Path) -> AnnotationCollection:
    """Load a line-delimited annotations file, skipping malformed records.

    Malformed records (lines that are not valid UTF-8, bad JSON, missing
    or invalid fields) are skipped.  Each is reported in
    ``record_errors`` with its line number, and not logged.
    """
    annotations: list[QuoteResponseAnnotation] = []
    errors: list[str] = []

    for lineno, record in _jsonl_records(path, errors):
        missing = [key for key in _ANNOTATION_FIELDS if key not in record]
        if missing:
            errors.append(f"line {lineno}: missing required field {missing[0]!r}")
            continue
        try:
            values = record_values(QuoteResponseAnnotation, record)
            _check_nonempty(values, ("quote_post_id", "response_post_id"))
            # compared before the float conversion, which a huge integer would overflow
            if not SCORE_MIN <= values["mean_score"] <= SCORE_MAX:
                raise ValueError(
                    f"mean_score must lie in [{SCORE_MIN:g}, {SCORE_MAX:g}], "
                    f"got {values['mean_score']!r}"
                )
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        values["mean_score"] = float(values["mean_score"])
        annotations.append(QuoteResponseAnnotation(**values))

    return AnnotationCollection(annotations=tuple(annotations), record_errors=tuple(errors))


def write_records(records: Iterable[object], path: str | Path) -> None:
    """Write dataclass records as JSON lines, one object per record.

    The inverse of ``load_posts`` and ``load_annotations``.  ``vars``
    reads each record's fields shallowly, in declaration order;
    ``dataclasses.asdict`` would deep-copy every value first.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(vars(record), ensure_ascii=False) + "\n")


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
    later = [
        post
        for post in posts.discussion(p2.discussion_id)
        if post.position > p2.position and post.author == p1.author
    ]
    # a later post of p2's discussion that names p2 has a valid parent
    for post in later:
        if post.parent_id == p2.id:
            return post
    return later[0] if later else None


def _triple_parts(
    posts: PostCollection, ann: QuoteResponseAnnotation
) -> tuple[Post, Post, Post, int] | str:
    """The (p1, p2, p3, treatment) an annotation names, or why it names none."""
    p1 = posts.get(ann.quote_post_id)
    p2 = posts.get(ann.response_post_id)
    if p1 is None or p2 is None:
        missing = ann.quote_post_id if p1 is None else ann.response_post_id
        return f"post {missing!r} not found"
    if p1.discussion_id != p2.discussion_id:
        return "posts in different discussions"
    if p1.position >= p2.position:
        return "response does not follow quote"
    if p1.author == p2.author:
        return "self-reply"
    treatment = binarize_score(ann.mean_score)
    if treatment is None:
        return f"mean score {ann.mean_score:.2f} in discard band"
    p3 = _find_p3(posts, p1, p2)
    if p3 is None:
        return f"author {p1.author!r} never posts again"
    return p1, p2, p3, treatment


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
        parts = _triple_parts(posts, ann)
        if isinstance(parts, str):
            logger.info("dropped annotation (%s, %s): %s",
                        ann.quote_post_id, ann.response_post_id, parts)
            continue
        p1, p2, p3, treatment = parts
        triple_id = f"{reply_type.value}:{p1.id}:{p2.id}"
        if triple_id in seen_ids:
            seen_ids[triple_id] += 1
            triple_id = f"{triple_id}~{seen_ids[triple_id]}"
        else:
            seen_ids[triple_id] = 1
        triples.append(Triple(triple_id, p1, p2, p3, p1.debate_topic, treatment))
    return triples
