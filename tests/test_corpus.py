"""Corpus loading, score binarization, and triple extraction."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tonefx.corpus import (
    CorpusError,
    PostCollection,
    QuoteResponseAnnotation,
    ReplyType,
    binarize_score,
    extract_triples,
    load_annotations,
    load_posts,
    write_annotations,
    write_posts,
)
from tonefx.harness.report import triple_summary

from conftest import make_post


# ---------------------------------------------------------------- loading


def test_minicorpus_loads_clean(posts, annotations):
    assert len(posts) == 202
    assert posts.record_errors == ()
    assert posts.warnings == (
        "post 'post0201': parent 'no-such-post' not found, treated as absent",
    )
    assert len(annotations) == 59
    assert annotations.record_errors == ()


def test_minicorpus_indexes(posts):
    assert posts.debate_topics == ["evolution", "gun control"]
    assert "post0000" in posts
    assert posts.get("post0000").position == 0
    assert posts.get("nope") is None
    first = posts.discussion(posts.discussion_ids[0])
    assert [p.position for p in first] == sorted(p.position for p in first)


def test_duplicate_post_id_is_fatal(tmp_path):
    record = {
        "id": "p1", "discussion_id": "d", "debate_topic": "t",
        "author": "a", "position": 0, "parent_id": None, "text": "x",
    }
    path = tmp_path / "posts.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps(record) + "\n")
        fh.write(json.dumps({**record, "position": 1}) + "\n")
    with pytest.raises(CorpusError, match="duplicate post id 'p1'"):
        load_posts(path)


def test_malformed_post_records_skipped(tmp_path):
    good = {
        "id": "p1", "discussion_id": "d", "debate_topic": "t",
        "author": "a", "position": 0, "parent_id": None, "text": "x",
    }
    lines = [
        json.dumps(good),
        "{not json",
        json.dumps({k: v for k, v in good.items() if k != "author"} | {"id": "p2"}),
        json.dumps({**good, "id": "p3", "position": "zero"}),
        json.dumps({**good, "id": "p4", "position": 0}),  # position collision
        json.dumps({**good, "id": "p5", "position": 2}),
    ]
    path = tmp_path / "posts.jsonl"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_posts(path)
    assert [p.id for p in loaded] == ["p1", "p5"]
    assert len(loaded.record_errors) == 4
    assert any("line 2" in e for e in loaded.record_errors)
    assert any("'author'" in e for e in loaded.record_errors)
    assert any("position" in e and "line 4" in e for e in loaded.record_errors)
    assert any("already used" in e for e in loaded.record_errors)


def test_parent_in_other_discussion_warns(tmp_path):
    posts = [
        make_post("p1", 0, discussion_id="d1"),
        make_post("p2", 1, discussion_id="d2", parent_id="p1"),
    ]
    path = tmp_path / "posts.jsonl"
    write_posts(posts, path)
    loaded = load_posts(path)
    assert len(loaded.warnings) == 1
    assert "not an earlier post in the same discussion" in loaded.warnings[0]


def test_malformed_annotation_records_skipped(tmp_path):
    good = {
        "quote_post_id": "p1", "response_post_id": "p2",
        "reply_type": "nasty_nice", "mean_score": 2.0,
    }
    lines = [
        json.dumps(good),
        json.dumps({**good, "reply_type": "rude_polite"}),
        json.dumps({**good, "mean_score": 7.5}),
        json.dumps({**good, "mean_score": True}),
    ]
    path = tmp_path / "ann.jsonl"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_annotations(path)
    assert len(loaded) == 1
    assert len(loaded.record_errors) == 3
    assert any("reply_type" in e for e in loaded.record_errors)
    assert any("[-5, 5]" in e for e in loaded.record_errors)


@pytest.mark.parametrize("loader", ["posts", "annotations"])
def test_non_utf8_line_skipped_by_line_number(tmp_path, loader):
    post = {
        "id": "p1", "discussion_id": "d", "debate_topic": "t",
        "author": "a", "position": 0, "parent_id": None, "text": "café",
    }
    annotation = {
        "quote_post_id": "p1", "response_post_id": "p2",
        "reply_type": "nasty_nice", "mean_score": 2.0,
    }
    good = post if loader == "posts" else annotation
    later = {**good, "id": "p2", "position": 1} if loader == "posts" else good
    path = tmp_path / f"{loader}.jsonl"
    path.write_bytes(
        json.dumps(good, ensure_ascii=False).encode("utf-8") + b"\n"
        + b'{"text": "caf\xe9"}\r\n'  # Latin-1, not UTF-8
        + b"\xff\xfe\n"
        + json.dumps(later, ensure_ascii=False).encode("utf-8") + b"\n"
    )
    loaded = (load_posts if loader == "posts" else load_annotations)(path)
    assert len(loaded) == 2
    assert loaded.record_errors == ("line 2: not valid UTF-8", "line 3: not valid UTF-8")
    if loader == "posts":
        assert [p.text for p in loaded] == ["café", "café"]


def test_missing_files_raise(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_posts(tmp_path / "absent.jsonl")
    with pytest.raises(FileNotFoundError):
        load_annotations(tmp_path / "absent.jsonl")


def test_write_load_roundtrip(tmp_path, posts, annotations):
    write_posts(posts, tmp_path / "posts.jsonl")
    write_annotations(annotations, tmp_path / "ann.jsonl")
    again = load_posts(tmp_path / "posts.jsonl")
    assert again.posts == posts.posts
    assert load_annotations(tmp_path / "ann.jsonl").annotations == annotations.annotations


def test_fixture_validates_against_schemas(minicorpus_dir):
    jsonschema = pytest.importorskip("jsonschema")
    import tonefx

    schema_dir = __import__("pathlib").Path(tonefx.__file__).parent / "schemas"
    for name, schema_file in (
        ("posts.jsonl", "posts.schema.json"),
        ("annotations.jsonl", "annotations.schema.json"),
    ):
        schema = json.loads((schema_dir / schema_file).read_text())
        validator = jsonschema.Draft202012Validator(schema)
        with (minicorpus_dir / name).open() as fh:
            for line in fh:
                validator.validate(json.loads(line))


# ---------------------------------------------------------------- binarize


@pytest.mark.parametrize(
    "score,expected",
    [(-5.0, 0), (-1.0, 0), (-0.99, None), (0.0, None), (0.4, None),
     (0.99, None), (1.0, 1), (5.0, 1)],
)
def test_binarize_frozen_values(score, expected):
    assert binarize_score(score) == expected


def test_binarize_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[-5, 5\]"):
        binarize_score(5.01)
    with pytest.raises(ValueError):
        binarize_score(float("nan"))


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_binarize_is_monotone(a, b):
    if a > b:
        a, b = b, a
    va, vb = binarize_score(a), binarize_score(b)
    if va is not None and vb is not None:
        assert va <= vb


# ---------------------------------------------------------------- triples


def test_minicorpus_triple_counts(posts, annotations):
    nasty = extract_triples(posts, annotations, ReplyType.NASTY_NICE)
    summary = triple_summary(nasty)
    assert (summary["total"], summary["treated"], summary["control"]) == (48, 22, 26)

    attacking = extract_triples(posts, annotations, ReplyType.ATTACKING_REASONABLE)
    summary = triple_summary(attacking)
    assert (summary["total"], summary["treated"], summary["control"]) == (8, 4, 4)

    assert extract_triples(posts, annotations, ReplyType.EMOTIONAL_FACTUAL) == []


def test_triple_structural_invariants(posts, annotations):
    for triple in extract_triples(posts, annotations, ReplyType.NASTY_NICE):
        p1, p2, p3 = triple.p1, triple.p2, triple.p3
        assert p1.author != p2.author
        assert p3.author == p1.author
        assert p1.position < p2.position < p3.position
        assert p1.discussion_id == p2.discussion_id == p3.discussion_id
        assert triple.debate_topic == p1.debate_topic
        assert triple.treatment.value in (0, 1)
        assert triple.treatment.reply_type is ReplyType.NASTY_NICE


def _annotation(q="p1", r="p2", score=2.0, reply_type=ReplyType.NASTY_NICE):
    return QuoteResponseAnnotation(
        quote_post_id=q, response_post_id=r, reply_type=reply_type, mean_score=score
    )


def test_direct_reply_preferred_over_earlier_post():
    # author "a" posts at 2 (not a reply) and at 3 (direct reply to p2)
    posts = PostCollection(posts=(
        make_post("p1", 0, author="a"),
        make_post("p2", 1, author="b", parent_id="p1"),
        make_post("p3", 2, author="a"),
        make_post("p4", 3, author="a", parent_id="p2"),
    ))
    (triple,) = extract_triples(posts, [_annotation()], ReplyType.NASTY_NICE)
    assert triple.p3.id == "p4"


def test_fallback_is_earliest_later_post():
    posts = PostCollection(posts=(
        make_post("p1", 0, author="a"),
        make_post("p2", 1, author="b"),
        make_post("p3", 2, author="c"),
        make_post("p4", 3, author="a"),
        make_post("p5", 4, author="a"),
    ))
    (triple,) = extract_triples(posts, [_annotation()], ReplyType.NASTY_NICE)
    assert triple.p3.id == "p4"


@pytest.mark.parametrize(
    "posts,annotation",
    [
        # p1 and p2 share an author
        (
            (make_post("p1", 0, author="a"), make_post("p2", 1, author="a"),
             make_post("p3", 2, author="a")),
            _annotation(),
        ),
        # score in the discard band
        (
            (make_post("p1", 0, author="a"), make_post("p2", 1, author="b"),
             make_post("p3", 2, author="a")),
            _annotation(score=0.4),
        ),
        # quoted author never posts again
        (
            (make_post("p1", 0, author="a"), make_post("p2", 1, author="b")),
            _annotation(),
        ),
        # posts in different discussions
        (
            (make_post("p1", 0, author="a"),
             make_post("p2", 1, author="b", discussion_id="d2"),
             make_post("p3", 2, author="a")),
            _annotation(),
        ),
        # response does not follow the quote
        (
            (make_post("p1", 1, author="a"), make_post("p2", 0, author="b"),
             make_post("p3", 2, author="a")),
            _annotation(),
        ),
        # response post missing entirely
        (
            (make_post("p1", 0, author="a"), make_post("p3", 2, author="a")),
            _annotation(),
        ),
    ],
)
def test_annotation_discard_rules(posts, annotation):
    collection = PostCollection(posts=posts)
    assert extract_triples(collection, [annotation], ReplyType.NASTY_NICE) == []


def test_duplicate_pair_gets_distinct_triple_ids():
    posts = PostCollection(posts=(
        make_post("p1", 0, author="a"),
        make_post("p2", 1, author="b"),
        make_post("p3", 2, author="a"),
    ))
    triples = extract_triples(
        posts, [_annotation(), _annotation(score=-3.0)], ReplyType.NASTY_NICE
    )
    assert len(triples) == 2
    assert len({t.id for t in triples}) == 2
    assert triples[0].treatment.value == 1
    assert triples[1].treatment.value == 0


def test_triple_counts_partition(posts, annotations):
    triples = extract_triples(posts, annotations, ReplyType.NASTY_NICE)
    summary = triple_summary(triples)
    assert summary["treated"] + summary["control"] == summary["total"]
    assert sum(summary["per_topic"].values()) == summary["total"]
    assert {t.treatment.reply_type.value for t in triples} == {"nasty_nice"}
    assert summary["treated"] / summary["total"] == pytest.approx(22 / 48)
