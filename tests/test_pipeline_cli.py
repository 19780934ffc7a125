"""End-to-end pipeline runs on the committed mini corpus, plus the CLI."""

import dataclasses
import functools
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonefx import estimators, lexicon, topics
from tonefx.corpus import extract_triples, load_annotations, load_posts
from tonefx.estimators import AipwVariant, Estimator, estimate_cell
from tonefx.harness import pipeline
from tonefx.harness.cli import EXIT_INCOMPLETE, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from tonefx.harness.config import PipelineConfig
from tonefx.harness.pipeline import PipelineError, run_pipeline
from tonefx.harness.report import parse_report, render_report
from tonefx.harness.synthetic import CorpusWorld, generate_corpus
from tonefx.inference import ConfounderVariant
from tonefx.lexicon import CategoryType
from tonefx.topics import (
    Tokenizer,
    TopicModelError,
    infer_theta_batch,
    load_model,
    save_model,
    split_words,
)

from conftest import MINICORPUS, skip_odd_first_unit, stall_line_search

POSTS = str(MINICORPUS / "posts.jsonl")
ANNOTATIONS = str(MINICORPUS / "annotations.jsonl")


def _config(out_dir, **overrides) -> PipelineConfig:
    """Small but complete settings so the fixture runs in well under a second."""
    base = dict(
        posts_path=POSTS,
        annotations_path=ANNOTATIONS,
        out_dir=str(out_dir),
        seed=3,
        k=4,
        lda_max_iters=40,
        folds=3,
        bootstrap_replicates=0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("minirun")
    return run_pipeline(_config(out)), out


# ----------------------------------------------------------------- pipeline


def test_pipeline_triple_counts_match_fixture(full_run):
    report, _ = full_run
    assert report.triple_counts["nasty_nice"] == {
        "total": 48, "treated": 22, "control": 26,
        "per_topic": {"evolution": 24, "gun control": 24},
    }
    assert report.triple_counts["attacking_reasonable"] == {
        "total": 8, "treated": 4, "control": 4,
        "per_topic": {"evolution": 4, "gun control": 4},
    }


def test_pipeline_covers_the_whole_grid(full_run):
    report, _ = full_run
    # 2 reply types x 3 category types x 2 variants x 4 estimators
    assert len(report.estimates) == 48
    assert report.failed_cells == []
    assert len(report.cv_reports) == 4
    seen = {
        (e.reply_type, e.category_type, e.confounder_variant, e.estimator.value)
        for e in report.estimates
    }
    assert len(seen) == 48
    ns = {e.reply_type: e.n for e in report.estimates}
    assert ns == {"nasty_nice": 48, "attacking_reasonable": 8}
    # each cell lists the configured estimators in order, and with no
    # bootstrap replicates none has a standard error
    assert [e.estimator for e in report.estimates] == list(Estimator) * 12
    for estimate in report.estimates:
        assert estimate.standard_error is None and estimate.significant is None
        expected = AipwVariant.STABILIZED if estimate.estimator is Estimator.AIPW else None
        assert estimate.aipw_variant == expected


def test_pipeline_scores_each_cell_from_one_bootstrap_pass(tmp_path, monkeypatch):
    passes = []

    def recorded(features, treatments, outcomes, estimators, **kwargs):
        data, result = estimate_cell(features, treatments, outcomes, estimators, **kwargs)
        passes.append((list(estimators), result))
        return data, result

    skip_odd_first_unit(monkeypatch)
    monkeypatch.setattr(pipeline, "estimate_cell", recorded)
    report = run_pipeline(_config(
        tmp_path, bootstrap_replicates=8, reply_types=("nasty_nice",),
        category_types=("linguistic_style",), estimators=("q", "unadjusted"),
    ))
    assert len(passes) == 2 and len(report.estimates) == 4
    skip_lines = []
    for (requested, result), cell in zip(passes, (report.estimates[:2], report.estimates[2:])):
        assert requested == [e.estimator for e in cell] == [Estimator.Q, Estimator.UNADJUSTED]
        for estimate in cell:
            assert estimate.standard_error == result.standard_errors[estimate.estimator] > 0
            assert isinstance(estimate.significant, bool)
        if result.skipped:
            skip_lines.append(
                f"cell (nasty_nice, linguistic_style, {cell[0].confounder_variant}): "
                f"{result.skipped} of 8 bootstrap replicates skipped"
            )
    assert skip_lines
    assert [w for w in report.warnings if w.startswith("cell (")] == skip_lines


def test_pipeline_logs_unconverged_bootstrap_refits_once_per_cell(tmp_path, monkeypatch, caplog):
    results = []

    def stalled(*args, **kwargs):
        data, result = estimate_cell(*args, **kwargs)
        results.append(dataclasses.replace(result, unconverged=3))
        return data, results[-1]

    monkeypatch.setattr(pipeline, "estimate_cell", stalled)
    categories = ("linguistic_style", "negative_sentiment")
    with caplog.at_level(logging.WARNING, logger="tonefx"):
        report = run_pipeline(_config(
            tmp_path, bootstrap_replicates=8, reply_types=("nasty_nice",), category_types=categories,
        ))
    cells = [f"(nasty_nice, {c}, {v.value})" for c in categories for v in ConfounderVariant]
    # one line per cell, naming it, logged by the run in task order
    assert [r.getMessage() for r in caplog.records if "propensity refits" in r.getMessage()] == [
        f"cell {cell}: 3 of {8 - result.skipped} bootstrap propensity refits ended "
        "unconverged (failed line search or iteration cap)"
        for cell, result in zip(cells, results, strict=True)
    ]
    assert not [w for w in report.warnings if "propensity" in w]


def test_pipeline_psi_does_not_depend_on_the_bootstrap_pass(tmp_path, monkeypatch):
    # a cell's point estimates come from its full-sample fit alone, whatever
    # the bootstrap pass around it holds and however it is chunked
    def psis(**overrides):
        report = run_pipeline(_config(tmp_path, **overrides))
        assert report.failed_cells == []
        return [
            (e.reply_type, e.category_type, e.confounder_variant, e.estimator, float(e.psi).hex())
            for e in report.estimates
        ]

    plain = psis()
    assert len(plain) == 48
    assert psis(bootstrap_replicates=2) == plain
    assert psis(bootstrap_replicates=40) == plain
    monkeypatch.setattr(estimators, "CHUNK_BYTES", 1)
    assert psis(bootstrap_replicates=40) == plain


def test_pipeline_logs_a_stalled_full_sample_fit_once(tmp_path, monkeypatch, caplog):
    config = _config(
        tmp_path, bootstrap_replicates=8, reply_types=("nasty_nice",),
        category_types=("linguistic_style",), confounder_variants=("full",),
    )

    def logged():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tonefx"):
            report = run_pipeline(config)
        assert report.failed_cells == []
        return [r.getMessage() for r in caplog.records]

    def propensity_lines(messages, phrase):
        return [m for m in messages if phrase in m]

    plain = logged()
    triples = extract_triples(
        load_posts(POSTS), load_annotations(ANNOTATIONS), config.reply_types[0]
    )
    # the one cell's full sample; its folds and resamples hold other treatments
    stall_line_search(monkeypatch, [t.treatment for t in triples])
    stalled = logged()
    assert not propensity_lines(plain, "propensity fit stopped")
    (line,) = propensity_lines(stalled, "propensity fit stopped")
    assert re.fullmatch(
        r"propensity fit stopped after 0 iterations: line search failed "
        r"with gradient norm \d\.\d\de[+-]\d\d",
        line,
    )
    # the bootstrap's unconverged count leaves the full-sample fit out
    assert propensity_lines(stalled, "bootstrap propensity refits") == propensity_lines(
        plain, "bootstrap propensity refits"
    )


def test_pipeline_surfaces_load_warnings(full_run):
    report, _ = full_run
    assert (
        "posts: post 'post0201': parent 'no-such-post' not found, treated as absent"
        in report.warnings
    )
    assert any("emotional_factual" in w for w in report.warnings)
    assert any("questioning_asserting" in w for w in report.warnings)


def test_pipeline_degenerate_outcome_gives_zero_effect(full_run):
    # the fixture texts contain no positive sentiment words, so that
    # category's outcomes are identically zero in both arms
    report, _ = full_run
    positive = [e for e in report.estimates if e.category_type == "positive_sentiment"]
    assert positive and all(e.psi == 0.0 for e in positive)
    style = [
        e for e in report.estimates
        if e.category_type == "linguistic_style" and e.reply_type == "nasty_nice"
    ]
    assert any(e.psi != 0.0 for e in style)


def test_pipeline_writes_artifacts(full_run):
    report, out = full_run
    for name in ("report.json", "report.txt", "report.csv"):
        assert (out / name).exists()
    assert sorted(p.name for p in (out / "models").iterdir()) == [
        "evolution.json", "gun-control.json",
    ]
    assert len(list((out / "cache").glob("lda-*"))) == 2
    # one theta batch per debate topic, beside its model
    assert [p.name.split("-")[1] for p in sorted((out / "cache").glob("theta-*"))] == [
        "evolution", "gun",
    ]
    parsed = parse_report((out / "report.json").read_text())
    assert len(parsed.estimates) == 48
    assert report.topic_top_words.keys() == {"evolution", "gun control"}
    assert all(len(words) == 4 for words in report.topic_top_words.values())


def test_pipeline_reruns_are_byte_identical(tmp_path):
    config = _config(tmp_path, reply_types=("nasty_nice",),
                     category_types=("linguistic_style",))
    first = render_report(run_pipeline(config))
    second = render_report(run_pipeline(config))
    assert first == second
    assert (tmp_path / "report.json").read_text() == second


def test_report_files_reparse_to_the_same_bytes(tmp_path):
    # what `tonefx report --format ...` prints for each file estimate wrote
    config = _config(tmp_path, reply_types=("nasty_nice",), bootstrap_replicates=20)
    run_pipeline(config)
    parsed = parse_report((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert all(e.standard_error is not None for e in parsed.estimates)
    for suffix, fmt in (("json", "structured"), ("txt", "table"), ("csv", "delimited")):
        written = (tmp_path / f"report.{suffix}").read_text(encoding="utf-8")
        assert render_report(parsed, fmt) == written, suffix


def test_pipeline_recovers_from_corrupt_cache(tmp_path, caplog):
    config = _config(tmp_path, reply_types=("nasty_nice",),
                     category_types=("linguistic_style",))
    run_pipeline(config)
    clean = (tmp_path / "report.json").read_bytes()
    thetas = {p.name: p.read_bytes() for p in (tmp_path / "cache").glob("theta-*")}
    assert len(thetas) == 2
    broken, deep = sorted((tmp_path / "cache").glob("lda-*"))
    broken.write_text("{broken")
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with caplog.at_level(logging.WARNING, logger="tonefx.harness.pipeline"):
        run_pipeline(config)
    messages = [r.getMessage() for r in caplog.records if "cache entry" in r.getMessage()]
    assert messages == [
        f"cache entry for debate topic 'evolution' unreadable ({broken.name}: invalid JSON "
        "(Expecting property name enclosed in double quotes)); refitting",
        f"cache entry for debate topic 'gun control' unreadable ({deep.name}: invalid JSON "
        "(nested too deeply)); refitting",
    ]
    # the faults are run output, so the repaired report has the clean one's bytes
    assert (tmp_path / "report.json").read_bytes() == clean
    # the refitted models have the old bits, so their theta entries still hit
    assert {p.name: p.read_bytes() for p in (tmp_path / "cache").glob("theta-*")} == thetas


def _count_featurization(monkeypatch) -> tuple[Counter, Counter, Counter]:
    """Count split_words calls per text, lemmatize_token calls per form and
    categorize_token calls per token form."""
    split: Counter = Counter()
    lemmatized: Counter = Counter()
    categorized: Counter = Counter()
    split_words_, lemmatize = topics.split_words, topics.lemmatize_token
    categorize = lexicon.categorize_token

    def counting_split(text):
        split[text] += 1
        return split_words_(text)

    def counting_lemmatize(token, *args):
        lemmatized[token] += 1
        return lemmatize(token, *args)

    def counting_categorize(lexicon_, token):
        categorized[token] += 1
        return categorize(lexicon_, token)

    monkeypatch.setattr(topics, "split_words", counting_split)
    monkeypatch.setattr(topics, "lemmatize_token", counting_lemmatize)
    monkeypatch.setattr(lexicon, "categorize_token", counting_categorize)
    return split, lemmatized, categorized


def test_pipeline_featurizes_each_post_once(tmp_path, monkeypatch):
    config = _config(tmp_path)
    posts, annotations = load_posts(POSTS), load_annotations(ANNOTATIONS)
    assert len({post.text for post in posts}) == len(posts)
    triples = [
        triple
        for reply_type in config.reply_types
        for triple in extract_triples(posts, annotations, reply_type)
    ]
    fitted = {t.debate_topic for t in triples}
    row_texts = {t.p1.text for t in triples} | {t.p3.text for t in triples}
    split, lemmatized, categorized = _count_featurization(monkeypatch)
    for cache in ("miss", "hit"):
        split.clear()
        lemmatized.clear()
        categorized.clear()
        run_pipeline(config)
        # each text is split at most once per run
        assert max(split.values()) == 1, cache
        # each run loads its own lexicon, which categorizes each surface form once
        assert max(categorized.values()) == 1, cache
        assert set(categorized) == {form for text in row_texts for form in split_words(text)}
        if cache == "miss":
            assert set(split) == {post.text for post in posts if post.debate_topic in fitted}
            assert max(lemmatized.values()) == 1
        else:
            # neither the cached models nor the cached theta batches need terms,
            # so only the posts with category rows are split
            assert set(split) == row_texts
            assert len(split) < len(posts)
            assert not lemmatized


def _record_theta_batches(monkeypatch) -> list:
    """Record each infer_theta_batch call of the pipeline as (model, counts, label),
    where the label names the debate topic whose model the call got."""
    calls = []
    fit_topic_models = pipeline.fit_topic_models

    def named(*args, **kwargs):
        start = len(calls)
        models, thetas = fit_topic_models(*args, **kwargs)
        labels = {id(model): f"debate topic {topic!r}" for topic, model in models.items()}
        calls[start:] = [(model, counts, labels[id(model)]) for model, counts, _ in calls[start:]]
        return models, thetas

    def recorded(model, counts, *args, **kwargs):
        calls.append((model, counts.toarray(), None))
        return infer_theta_batch(model, counts, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_topic_models", named)
    monkeypatch.setattr(pipeline, "infer_theta_batch", recorded)
    return calls


def test_pipeline_infers_each_post_once_per_run(tmp_path, monkeypatch):
    config = _config(tmp_path)
    posts, annotations = load_posts(POSTS), load_annotations(ANNOTATIONS)
    # each debate topic's distinct p1 and p2, first-seen over the reply types
    expected: dict[str, dict[str, None]] = {}
    for reply_type in config.reply_types:
        for triple in extract_triples(posts, annotations, reply_type):
            expected.setdefault(triple.debate_topic, {}).update(
                dict.fromkeys((triple.p1.id, triple.p2.id))
            )
    calls = _record_theta_batches(monkeypatch)
    built = []
    build = pipeline.build_confounder_matrix

    def recorded_build(triples, variant, thetas, category_rows):
        matrix = build(triples, variant, thetas, category_rows)
        built.append((triples, variant, thetas, category_rows, matrix))
        return matrix

    monkeypatch.setattr(pipeline, "build_confounder_matrix", recorded_build)
    report = run_pipeline(config)
    assert len(report.triple_counts) == 2  # two reply types share the batches
    assert [label for _, _, label in calls] == [
        "debate topic 'evolution'", "debate topic 'gun control'",
    ]
    tokenize = Tokenizer()
    for (model, counts, _), (topic, post_ids) in zip(calls, sorted(expected.items())):
        index = model.vocabulary.index
        want = np.zeros((len(post_ids), len(index)), dtype=np.int64)
        for row, post_id in enumerate(post_ids):
            for token in tokenize(posts.get(post_id).text):
                if token in index:
                    want[row, index[token]] += 1
        np.testing.assert_array_equal(counts, want)
    # every full row is theta[p1], theta[p2] and the category row of p1
    full = [b for b in built if b[1] is ConfounderVariant.FULL]
    assert len(full) == 2 and len(built) == 4
    for triples, _, thetas, category_rows, matrix in full:
        assert set(thetas) == {i for ids in expected.values() for i in ids}
        for row, t in zip(matrix, triples, strict=True):
            pieces = (thetas[t.p1.id], thetas[t.p2.id], category_rows[t.p1.id])
            np.testing.assert_array_equal(row, np.concatenate(pieces))


def test_pipeline_skips_theta_without_the_full_variant(tmp_path, monkeypatch):
    calls = _record_theta_batches(monkeypatch)
    report = run_pipeline(_config(tmp_path, confounder_variants=("debate_topics_only",)))
    assert not calls
    assert report.estimates and not report.failed_cells


def test_pipeline_warns_once_per_debate_topic_on_unconverged_theta(
    tmp_path, monkeypatch, caplog
):
    config = _config(tmp_path)
    run_pipeline(config, run_estimates=False)
    calls = _record_theta_batches(monkeypatch)
    # two sweeps leave rows of both topics unconverged, on any machine; the
    # sweep limit is part of the theta cache key, so the first run misses
    monkeypatch.setattr(topics, "_THETA_MAX_ITERS", 2)
    legs = {}
    for cache in ("miss", "hit"):
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tonefx.topics"):
            run_pipeline(config, run_estimates=False)
        assert len(calls) == (2 if cache == "miss" else 0), cache
        messages = [r.getMessage() for r in caplog.records if "did not converge" in r.getMessage()]
        assert [m.split(":")[0] for m in messages] == [
            "debate topic 'evolution'", "debate topic 'gun control'",
        ], cache
        assert all(re.search(r": \d+ of 56 rows did not converge within max_iters=2$", m)
                   for m in messages), messages
        legs[cache] = messages
    # the hit repeats the stored counts
    assert legs["hit"] == legs["miss"]


def _record_theta_tables(monkeypatch) -> list[dict]:
    """Record the theta table of each full-variant confounder matrix the pipeline builds."""
    tables = []
    build = pipeline.build_confounder_matrix

    def recorded(triples, variant, thetas, category_rows):
        if variant is ConfounderVariant.FULL:
            tables.append(dict(thetas))
        return build(triples, variant, thetas, category_rows)

    monkeypatch.setattr(pipeline, "build_confounder_matrix", recorded)
    return tables


def test_theta_cache_hit_matches_miss_bit_for_bit(tmp_path, monkeypatch):
    config = _config(tmp_path, bootstrap_replicates=20)
    tables = _record_theta_tables(monkeypatch)
    calls = _record_theta_batches(monkeypatch)
    written = {}
    for cache in ("miss", "hit"):
        calls.clear()
        run_pipeline(config)
        assert len(calls) == (2 if cache == "miss" else 0), cache
        written[cache] = (tmp_path / "report.json").read_bytes()
    assert written["hit"] == written["miss"]
    miss, hit = tables[0], tables[-1]
    assert list(hit) == list(miss)
    assert all(hit[i].tobytes() == miss[i].tobytes() for i in miss)


def test_theta_cache_hit_needs_no_tokens_and_no_inference(tmp_path, monkeypatch):
    config = _config(tmp_path)
    run_pipeline(config)
    _, lemmatized, _ = _count_featurization(monkeypatch)

    def not_called(*args, **kwargs):
        raise AssertionError("a full cache hit needs no counts")

    for name in ("build_dtm", "infer_theta_batch"):
        monkeypatch.setattr(pipeline, name, not_called)
    report = run_pipeline(config)
    assert not lemmatized
    assert report.estimates and not report.failed_cells


def _reverse(key: str):
    """Damage to a theta entry: reverse the list under ``key``."""

    def damage(entry: Path) -> None:
        document = json.loads(entry.read_text())
        document[key] = document[key][::-1]
        entry.write_text(json.dumps(document))

    return damage


@pytest.mark.parametrize("damage, reason", [
    (lambda entry: entry.write_text("{broken"), "invalid JSON"),
    (_reverse("post_ids"), "post ids are not the batch's"),
    (_reverse("shape"), "shape is not"),
])
def test_unusable_theta_entry_is_inferred_again(
    tmp_path, monkeypatch, caplog, damage, reason
):
    config = _config(tmp_path, reply_types=("nasty_nice",), bootstrap_replicates=20)
    run_pipeline(config)
    clean = (tmp_path / "report.json").read_bytes()
    entry = sorted((tmp_path / "cache").glob("theta-evolution-*"))[0]
    good = entry.read_bytes()
    damage(entry)
    calls = _record_theta_batches(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="tonefx.harness.pipeline"):
        repaired = run_pipeline(config)
    theta_warnings = [r.getMessage() for r in caplog.records
                      if "theta cache entry" in r.getMessage()]
    assert len(theta_warnings) == 1
    assert theta_warnings[0].startswith(
        f"theta cache entry for debate topic 'evolution' unreadable ({entry.name}: "
    )
    assert reason in theta_warnings[0] and theta_warnings[0].endswith("; inferring again")
    assert not any("cache" in w for w in repaired.warnings)
    # only the damaged batch is inferred again, and its entry is rewritten
    assert [label for _, _, label in calls] == ["debate topic 'evolution'"]
    assert entry.read_bytes() == good
    assert (tmp_path / "report.json").read_bytes() == clean


def test_other_theta_batch_misses_and_writes_its_own_entry(tmp_path, monkeypatch):
    run_pipeline(_config(tmp_path))
    before = {p.name: p.read_bytes() for p in (tmp_path / "cache").glob("theta-*")}
    calls = _record_theta_batches(monkeypatch)
    # without attacking_reasonable, each debate topic's batch has fewer posts
    report = run_pipeline(_config(tmp_path, reply_types=("nasty_nice",)))
    assert [label for _, _, label in calls] == [
        "debate topic 'evolution'", "debate topic 'gun control'",
    ]
    assert not [w for w in report.warnings if "theta" in w]
    after = {p.name: p.read_bytes() for p in (tmp_path / "cache").glob("theta-*")}
    assert len(after) == 4 and {name: after[name] for name in before} == before
    # the models' keys ignore the reply types, so they still hit
    assert len(list((tmp_path / "cache").glob("lda-*"))) == 2


def _out_files(out: Path) -> dict[str, bytes]:
    """Every file under a run's out_dir, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("kept", [(), ("lda",), ("theta",), ("lda", "theta")])
def test_rerun_from_any_cache_state_matches_a_cold_run(tmp_path, monkeypatch, full_run, kept):
    _, cold = full_run
    cold_files = _out_files(cold)
    out = tmp_path / "out"
    (out / "cache").mkdir(parents=True)
    for kind in kept:
        for entry in (cold / "cache").glob(f"{kind}-*"):
            (out / "cache" / entry.name).write_bytes(entry.read_bytes())
    fits, inferences = [], []
    for name, calls in (("fit_lda", fits), ("infer_theta_batch", inferences)):
        def counted(*args, _call=getattr(pipeline, name), _calls=calls, **kwargs):
            _calls.append(args)
            return _call(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    run_pipeline(_config(out))
    # each debate topic fits where its lda-* entry is missing, infers where its theta-* is
    assert len(fits) == (0 if "lda" in kept else 2)
    assert len(inferences) == (0 if "theta" in kept else 2)
    assert _out_files(out) == cold_files


def _theta_entry_names(tmp_path, monkeypatch, change: str) -> list[str]:
    """The theta-* entry of evolution's first ten posts, after one change to its inputs."""
    posts = load_posts(POSTS)
    batch = [post for post in posts if post.debate_topic == "evolution"][:10]
    overrides = dict(lda_max_iters=5, bootstrap_replicates=20)
    if change == "model":
        overrides["lda_max_iters"] = 6
    elif change == "ids":
        batch[0] = [post for post in posts if post.debate_topic == "evolution"][10]
    elif change == "texts":
        batch[0] = dataclasses.replace(batch[0], text=batch[0].text + " again")
    elif change == "order":
        batch = batch[::-1]
    elif change in ("_THETA_MAX_ITERS", "_THETA_TOL"):
        monkeypatch.setattr(topics, change, getattr(topics, change) * 2)
    elif change in ("bootstrap_replicates", "folds"):
        overrides[change] = 7
    out = tmp_path / change
    pipeline.fit_topic_models(
        _config(out, **overrides), posts, ["evolution"], pipeline.PostForms(posts),
        {"evolution": batch},
    )
    return [p.name for p in (out / "cache").glob("theta-*")]


def test_theta_entry_name_follows_the_model_entry_the_batch_and_the_sweep_settings(
    tmp_path, monkeypatch
):
    (base,) = _theta_entry_names(tmp_path, monkeypatch, "none")
    assert base.startswith("theta-evolution-")
    for change in ("model", "ids", "texts", "order", "_THETA_MAX_ITERS", "_THETA_TOL"):
        with monkeypatch.context() as patch:
            assert _theta_entry_names(tmp_path, patch, change) != [base], change
    # settings that theta inference does not read leave the name as it is
    for change in ("bootstrap_replicates", "folds"):
        assert _theta_entry_names(tmp_path, monkeypatch, change) == [base], change


def test_pipeline_warns_once_per_debate_topic_on_unconverged_topic_model(tmp_path, caplog):
    config = _config(tmp_path, lda_max_iters=2, reply_types=("nasty_nice",),
                     category_types=("linguistic_style",))
    for cache in ("miss", "hit"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tonefx.harness.pipeline"):
            report = run_pipeline(config)
        messages = [r.getMessage() for r in caplog.records if "lda_max_iters" in r.getMessage()]
        assert [m.split(":")[0] for m in messages] == [
            "debate topic 'evolution'", "debate topic 'gun control'",
        ], cache
        for message, model in zip(messages, (load_model(tmp_path / "models" / f"{slug}.json")
                                             for slug in ("evolution", "gun-control"))):
            previous, last = model.elbo_trace
            change = abs(last - previous) / abs(previous)
            assert message.endswith(
                ": topic model did not converge within lda_max_iters=2 "
                f"(final relative ELBO change {change:.3g}, lda_tol 0.0001)"
            ), message
        # run output, not a number of the report
        assert not any("lda_max_iters" in warning for warning in report.warnings)
        assert "converge" not in (tmp_path / "report.json").read_text(encoding="utf-8")


def test_topic_model_warnings_name_their_debate_topic(tmp_path, caplog):
    # k=40 outgrows both vocabularies, and one evolution post keeps no term
    with caplog.at_level(logging.WARNING, logger="tonefx"):
        code = main([
            "fit-topics", "--posts", POSTS, "--out-dir", str(tmp_path), "--seed", "3",
            "--k", "40", "--min-df", "0.4",
        ])
    assert code == EXIT_OK
    messages = [r.getMessage() for r in caplog.records if "vocabulary" in r.getMessage()]
    assert messages == [
        "debate topic 'evolution': 1 of 96 posts have no in-vocabulary tokens",
        "debate topic 'evolution': k=40 exceeds the 9-term vocabulary",
        "debate topic 'gun control': k=40 exceeds the 7-term vocabulary",
    ]


def test_largest_seed_is_written_and_read_back(tmp_path, caplog):
    # seeds stop below 2**63, where a model file stops reading back as an
    # integer; building the config validates it
    config = _config(tmp_path, seed=2**63 - 1, lda_max_iters=5)
    posts = load_posts(POSTS)
    for cache in ("miss", "hit"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tonefx.harness.pipeline"):
            models, _ = pipeline.fit_topic_models(
                config, posts, posts.debate_topics, pipeline.PostForms(posts)
            )
        assert not [r for r in caplog.records if "cache entry" in r.getMessage()], cache
        assert [model.seed for model in models.values()] == [2**63 - 1] * 2
        for slug in ("evolution", "gun-control"):
            assert load_model(tmp_path / "models" / f"{slug}.json").seed == 2**63 - 1


def test_published_models_are_copies_of_cache_entries(tmp_path, monkeypatch):
    config = _config(tmp_path, reply_types=("nasty_nice",),
                     category_types=("linguistic_style",))
    saved: list[Path] = []
    save = pipeline.save_model

    def counting_save(model, path):
        saved.append(Path(path))
        save(model, path)

    monkeypatch.setattr(pipeline, "save_model", counting_save)
    for cache in ("miss", "hit"):
        saved.clear()
        if cache == "hit":
            for published in (tmp_path / "models").iterdir():
                published.unlink()
        run_pipeline(config)
        # a miss serializes each model once, into the cache; a hit not at all
        assert [path.parent.name for path in saved] == (
            ["cache", "cache"] if cache == "miss" else []
        )
        entries = sorted((tmp_path / "cache").glob("lda-*"))
        assert [entry.name.split("-")[1] for entry in entries] == ["evolution", "gun"]
        thetas = sorted((tmp_path / "cache").glob("theta-*"))
        assert [entry.name.split("-")[1] for entry in thetas] == ["evolution", "gun"], cache
        for slug, entry in zip(("evolution", "gun-control"), entries):
            published = (tmp_path / "models" / f"{slug}.json").read_bytes()
            assert published == entry.read_bytes(), cache
            save(load_model(entry), tmp_path / "resaved.json")
            assert published == (tmp_path / "resaved.json").read_bytes(), cache


def test_fit_topics_publishes_copies_of_cache_entries(tmp_path):
    # fit-topics infers no theta, so a fresh out_dir gains lda-* entries only
    args = ["fit-topics", "--posts", POSTS, "--out-dir", str(tmp_path), "--seed", "3", "--k", "4"]
    assert main(args) == EXIT_OK
    assert sorted(p.name.split("-")[0] for p in (tmp_path / "cache").iterdir()) == ["lda"] * 2
    published = sorted(p.name for p in (tmp_path / "models").iterdir())
    assert published == ["evolution.json", "gun-control.json"]
    for name in published:
        [entry] = (tmp_path / "cache").glob(f"lda-{name.removesuffix('.json')}-*")
        assert (tmp_path / "models" / name).read_bytes() == entry.read_bytes()


def test_topics_sharing_a_slug_publish_one_model_each(tmp_path):
    posts_path = tmp_path / "posts.jsonl"
    posts_path.write_text(Path(POSTS).read_text().replace(
        '"debate_topic": "evolution"', '"debate_topic": "Gun-Control"'
    ))
    config = _config(tmp_path / "out", posts_path=str(posts_path))
    posts = load_posts(posts_path)
    assert posts.debate_topics == ["Gun-Control", "gun control"]
    models, _ = pipeline.fit_topic_models(
        config, posts, posts.debate_topics, pipeline.PostForms(posts)
    )
    models_dir = tmp_path / "out" / "models"
    entries = {p.read_bytes() for p in (tmp_path / "out" / "cache").glob("lda-gun-control-*")}
    assert len(entries) == 2
    published = []
    for topic in posts.debate_topics:
        name = f"gun-control-{hashlib.sha256(topic.encode('utf-8')).hexdigest()[:8]}.json"
        # each topic's own model, copied from one of the two cache entries
        save_model(models[topic], tmp_path / "resaved.json")
        assert (models_dir / name).read_bytes() == (tmp_path / "resaved.json").read_bytes()
        assert (models_dir / name).read_bytes() in entries
        published.append(name)
    assert sorted(path.name for path in models_dir.iterdir()) == sorted(published)


def test_minicorpus_topic_model_entry_names_are_pinned(tmp_path):
    # an lda-* name is a key over posts, tokenizer and settings, never float bits;
    # a key change would silently invalidate every existing cache
    args = ["fit-topics", "--posts", POSTS, "--out-dir", str(tmp_path), "--seed", "3", "--k", "4"]
    assert main(args) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "cache").glob("lda-*")) == [
        "lda-evolution-5cc1f728c5bd7dca.json", "lda-gun-control-e286e0b938dbb274.json",
    ]


def test_cached_model_with_an_empty_elbo_trace_is_refitted(tmp_path, capsys, caplog):
    args = ["fit-topics", "--posts", POSTS, "--out-dir", str(tmp_path), "--seed", "3", "--k", "4"]
    assert main(args) == EXIT_OK
    entry = sorted((tmp_path / "cache").glob("lda-evolution-*"))[0]
    good = entry.read_bytes()
    entry.write_text(json.dumps({**json.loads(good), "elbo_trace": []}))
    capsys.readouterr()
    with caplog.at_level(logging.WARNING, logger="tonefx.harness.pipeline"):
        assert main(args) == EXIT_OK
    assert [r.getMessage() for r in caplog.records if "cache entry" in r.getMessage()] == [
        f"cache entry for debate topic 'evolution' unreadable ({entry.name}: "
        "field 'elbo_trace' is empty); refitting",
    ]
    assert "evolution: k=4, vocabulary=61, sweeps=" in capsys.readouterr().out
    assert entry.read_bytes() == good


def test_warm_run_on_reordered_posts_matches_a_cold_one(tmp_path):
    # a topic model's bits follow the order of its posts in the posts file,
    # so the same posts in another order must not hit the first order's entries
    reversed_posts = tmp_path / "reversed.jsonl"
    lines = Path(POSTS).read_text(encoding="utf-8").splitlines(keepends=True)
    reversed_posts.write_text("".join(reversed(lines)), encoding="utf-8")
    run_pipeline(_config(tmp_path / "warm"))
    run_pipeline(_config(tmp_path / "warm", posts_path=str(reversed_posts)))
    run_pipeline(_config(tmp_path / "cold", posts_path=str(reversed_posts)))
    warm = (tmp_path / "warm" / "report.json").read_bytes()
    assert warm == (tmp_path / "cold" / "report.json").read_bytes()
    assert len(list((tmp_path / "warm" / "cache").glob("lda-*"))) == 4


def _with_stray_post(tmp_path, debate_topic="abortion") -> Path:
    """The minicorpus posts plus one post alone in its own debate topic, in no triple."""
    stray = {
        "id": "stray", "discussion_id": f"{debate_topic}-00", "debate_topic": debate_topic,
        "author": "user999", "position": 0, "parent_id": None, "text": "a lone post",
    }
    posts_path = tmp_path / "posts.jsonl"
    posts_path.write_text(Path(POSTS).read_text() + json.dumps(stray) + "\n")
    return posts_path


def test_debate_topic_without_triples_is_not_fitted(tmp_path):
    # one post alone in its debate topic: too few documents for a vocabulary
    posts_path = _with_stray_post(tmp_path)
    report = run_pipeline(_config(tmp_path / "out", posts_path=str(posts_path)))
    assert sorted(report.topic_top_words) == ["evolution", "gun control"]
    assert sorted(path.name for path in (tmp_path / "out" / "models").iterdir()) == [
        "evolution.json", "gun-control.json",
    ]


@pytest.fixture(scope="module")
def plain_numbers(tmp_path_factory):
    """The estimates and cv blocks of the minicorpus report, with a small bootstrap."""
    out = tmp_path_factory.mktemp("plain")
    run_pipeline(_config(out, bootstrap_replicates=20))
    document = json.loads((out / "report.json").read_text())
    return document["estimates"], document["cv"]


# "abortion" sorts before both minicorpus topics, "zoning" after them
@pytest.mark.parametrize("debate_topic", ["abortion", "zoning"])
def test_post_outside_every_triple_changes_no_number(tmp_path, plain_numbers, debate_topic):
    # the topics-only confounder is built from the cell's own triples, so
    # a debate topic that no triple uses adds no column and moves no bit
    posts_path = _with_stray_post(tmp_path, debate_topic)
    out = tmp_path / "out"
    run_pipeline(_config(out, posts_path=str(posts_path), bootstrap_replicates=20))
    document = json.loads((out / "report.json").read_text())
    assert (document["estimates"], document["cv"]) == plain_numbers


def _one_arm_annotations(tmp_path) -> Path:
    """Annotations whose nasty_nice triples are all treated, so every cell fails."""
    kept = [
        line for line in Path(ANNOTATIONS).read_text().splitlines()
        if json.loads(line)["reply_type"] == "nasty_nice"
        and json.loads(line)["mean_score"] >= 1.0
    ]
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("\n".join(kept) + "\n")
    return annotations


def test_pipeline_parallel_matches_serial(tmp_path):
    # neither the worker count, the output directory nor a deleted cache
    # moves a byte of report.json
    runs = {"s": dict(jobs=1), "p": dict(jobs=2)}
    reports = {
        name: run_pipeline(_config(tmp_path / name, reply_types=("nasty_nice",), **overrides))
        for name, overrides in runs.items()
    }
    serial, parallel = reports["s"], reports["p"]
    key = lambda e: (e.reply_type, e.category_type, e.confounder_variant, e.estimator.value)
    assert [key(e) for e in serial.estimates] == [key(e) for e in parallel.estimates]
    np.testing.assert_array_equal(
        [e.psi for e in serial.estimates], [e.psi for e in parallel.estimates]
    )
    written = {name: (tmp_path / name / "report.json").read_bytes() for name in runs}
    assert written["s"] == written["p"]
    # a copy of the warm serial run whose whole cache is deleted rebuilds that
    # cache and rewrites the report and every model, all to the same bytes
    rebuilt = tmp_path / "rebuilt"
    shutil.copytree(tmp_path / "s", rebuilt)
    shutil.rmtree(rebuilt / "cache")
    run_pipeline(_config(rebuilt, reply_types=("nasty_nice",)))
    assert _out_files(rebuilt) == _out_files(tmp_path / "s")


def test_pipeline_parallel_matches_serial_with_failed_cells(tmp_path):
    annotations = str(_one_arm_annotations(tmp_path))
    for jobs in (1, 2):
        report = run_pipeline(_config(
            tmp_path / f"jobs{jobs}", jobs=jobs, annotations_path=annotations,
            reply_types=("nasty_nice",),
        ))
        assert not report.estimates
        assert report.failed_cells == [
            f"(nasty_nice, {category.value}, {variant.value})"
            for category in CategoryType
            for variant in ConfounderVariant
        ]
    assert (tmp_path / "jobs1" / "report.json").read_bytes() == (
        tmp_path / "jobs2" / "report.json"
    ).read_bytes()


def test_pipeline_cv_outcome_outside_estimate_grid(tmp_path):
    # crossval scores its own configured category even when the estimate
    # grid excludes it
    report = run_pipeline(_config(
        tmp_path, reply_types=("nasty_nice",), category_types=("linguistic_style",),
    ))
    assert all(cv.category_type == "positive_sentiment" for cv in report.cv_reports)
    assert {e.category_type for e in report.estimates} == {"linguistic_style"}


def test_pipeline_no_triples_at_all_is_fatal(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    config = _config(tmp_path, annotations_path=str(empty))
    with pytest.raises(PipelineError, match="stage 'triples'") as excinfo:
        run_pipeline(config)
    # no report is written, so the error carries the run's warnings
    assert excinfo.value.warnings[0] == (
        "posts: post 'post0201': parent 'no-such-post' not found, treated as absent"
    )
    assert len(excinfo.value.warnings) == 1 + len(config.reply_types)


def test_pipeline_load_failure_carries_the_posts_warnings(tmp_path):
    config = _config(tmp_path, annotations_path=str(tmp_path / "absent.jsonl"))
    with pytest.raises(PipelineError, match="stage 'load'") as excinfo:
        run_pipeline(config)
    assert excinfo.value.warnings == (
        "posts: post 'post0201': parent 'no-such-post' not found, treated as absent",
    )


def test_pipeline_times_every_stage_in_order(full_run):
    report, _ = full_run
    assert list(report.timings) == [
        "load", "triples", "topics", "outcomes", "confounders", "crossval", "estimates",
        "report",
    ]
    assert all(seconds >= 0 for seconds in report.timings.values())


def test_pipeline_stage_error_names_the_stage_and_carries_the_warnings(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TopicModelError("theta went wrong")

    monkeypatch.setattr(pipeline, "build_confounder_matrix", broken)
    with pytest.raises(PipelineError, match="stage 'confounders': theta went wrong") as excinfo:
        run_pipeline(_config(tmp_path))
    assert isinstance(excinfo.value.__cause__, TopicModelError)
    assert excinfo.value.warnings[0] == (
        "posts: post 'post0201': parent 'no-such-post' not found, treated as absent"
    )
    assert not (tmp_path / "report.json").exists()


def test_theta_fault_fails_the_topics_stage(tmp_path, monkeypatch):
    # theta batches are inferred beside their topic models
    def broken(*args, **kwargs):
        raise TopicModelError("theta went wrong")

    monkeypatch.setattr(pipeline, "infer_theta_batch", broken)
    with pytest.raises(PipelineError, match="^stage 'topics': theta went wrong$"):
        run_pipeline(_config(tmp_path))


# -------------------------------------------------------------- BLAS threads

BLAS_CALLS = pipeline._blas_thread_calls()
needs_blas_setter = pytest.mark.skipif(
    BLAS_CALLS is None, reason="numpy's BLAS has no OpenBLAS thread setter"
)


@pytest.fixture
def two_blas_threads():
    """The caller runs BLAS on two threads; its own count comes back afterwards."""
    getter, setter = BLAS_CALLS
    before = getter()
    setter(2)
    yield getter
    setter(before)


def _blas_threads_now() -> int:
    return pipeline._blas_thread_calls()[0]()


@needs_blas_setter
def test_pipeline_runs_on_one_blas_thread_and_restores_the_callers(
    tmp_path, monkeypatch, two_blas_threads
):
    seen = []

    def recorded(fit):
        def call(*args, **kwargs):
            seen.append((fit.__name__, two_blas_threads()))
            return fit(*args, **kwargs)
        return call

    for name in ("fit_lda", "infer_theta_batch", "cross_validate"):
        monkeypatch.setattr(pipeline, name, recorded(getattr(pipeline, name)))
    run_pipeline(_config(tmp_path / "run", reply_types=("nasty_nice",)))
    # theta and crossval run after the nested fit_topic_models has restored
    # the run's own count
    assert {name for name, _ in seen} == {"fit_lda", "infer_theta_batch", "cross_validate"}
    assert {threads for _, threads in seen} == {1}
    assert two_blas_threads() == 2
    # fit-topics calls the topic stage on its own
    seen.clear()
    posts = load_posts(POSTS)
    pipeline.fit_topic_models(
        _config(tmp_path / "topics"), posts, posts.debate_topics,
        pipeline.PostForms(posts),
    )
    assert seen and {threads for _, threads in seen} == {1}
    assert two_blas_threads() == 2


@needs_blas_setter
def test_failed_run_restores_the_callers_blas_threads(tmp_path, monkeypatch, two_blas_threads):
    def broken(*args, **kwargs):
        raise TopicModelError("theta went wrong")

    monkeypatch.setattr(pipeline, "build_confounder_matrix", broken)
    with pytest.raises(PipelineError, match="stage 'confounders'"):
        run_pipeline(_config(tmp_path))
    assert two_blas_threads() == 2


@needs_blas_setter
def test_cell_pool_workers_run_on_one_blas_thread(two_blas_threads):
    # a forkserver worker starts at the library's default count, not the
    # caller's, so only the pool's initializer brings it to one
    with pipeline._cell_pool(2) as pool:
        futures = [pool.submit(_blas_threads_now) for _ in range(4)]
        assert [future.result() for future in futures] == [1] * 4
    assert two_blas_threads() == 2


@pytest.fixture
def no_blas_setter(monkeypatch):
    """Every thread-count lookup of this test finds no setter, as with another BLAS."""
    monkeypatch.setattr(pipeline, "_OPENBLAS_THREAD_CALLS", ())
    pipeline._blas_thread_calls.cache_clear()
    yield
    pipeline._blas_thread_calls.cache_clear()


def test_pipeline_without_a_blas_setter_runs_and_warns_once(tmp_path, caplog, no_blas_setter):
    with caplog.at_level(logging.WARNING, logger="tonefx.harness.pipeline"):
        for name in ("a", "b"):
            run_pipeline(_config(tmp_path / name, reply_types=("nasty_nice",)))
    notes = [r.getMessage() for r in caplog.records if "thread setter" in r.getMessage()]
    assert notes == [
        "no OpenBLAS thread setter found next to numpy; BLAS runs at its own "
        "thread count, so report bytes may depend on it"
    ]
    # the note is about the machine, so it stays out of the report
    for name in ("a", "b"):
        report = json.loads((tmp_path / name / "report.json").read_text(encoding="utf-8"))
        assert report["estimates"] and not any("thread" in w for w in report["warnings"])


@needs_blas_setter
def test_report_bytes_do_not_depend_on_openblas_num_threads(tmp_path):
    # large enough for OpenBLAS to split the topic products by thread
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusWorld(vocab_size=2000), 160, seed=100, out_dir=corpus)
    digests = {}
    for threads in (1, max(2, os.cpu_count() or 1)):
        out_dir = tmp_path / f"threads{threads}"
        done = _run_cli(
            "estimate", "--posts", str(corpus / "posts.jsonl"),
            "--annotations", str(corpus / "annotations.jsonl"), "--out-dir", str(out_dir),
            "--seed", "100", "--k", "12", "--bootstrap-replicates", "0",
            env={"OPENBLAS_NUM_THREADS": str(threads)},
        )
        assert done.returncode == EXIT_OK, done.stderr
        digests[threads] = hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
    assert len(set(digests.values())) == 1, digests


# ------------------------------------------------------------- topic threads


@pytest.fixture
def topic_threads(monkeypatch):
    """Open the thread gate to every topic kernel, with two usable cores.

    Returns a function that sets the usable core count instead.
    """
    monkeypatch.setattr(pipeline, "_THREAD_MIN_MADDS", 0)

    def usable(cores: int) -> None:
        monkeypatch.setattr(pipeline, "_usable_cores", lambda: cores)

    usable(2)
    return usable


@pytest.fixture(scope="module")
def three_topic_corpus(tmp_path_factory) -> Path:
    corpus = tmp_path_factory.mktemp("three-topics")
    world = CorpusWorld(debate_topics=("gun control", "climate change", "abortion"))
    generate_corpus(world, 90, seed=5, out_dir=corpus)
    return corpus


def _run_and_collect(config, caplog) -> tuple[dict[str, bytes], list[str]]:
    """Run the pipeline; every file under its out_dir, by relative path, and its log lines."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="tonefx"):
        run_pipeline(config)
    out = Path(config.out_dir)
    files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return files, [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("corpus", ["minicorpus", "three topics"])
def test_topic_threads_match_one_worker_byte_for_byte(
    tmp_path, monkeypatch, caplog, topic_threads, three_topic_corpus, corpus
):
    paths, n_topics = {}, 2
    if corpus == "three topics":
        paths, n_topics = dict(
            posts_path=str(three_topic_corpus / "posts.jsonl"),
            annotations_path=str(three_topic_corpus / "annotations.jsonl"),
        ), 3
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    runs = {}
    for workers in (2, 1):
        topic_threads(workers)
        started.clear()
        config = _config(tmp_path / f"workers{workers}", bootstrap_replicates=20, **paths)
        # a miss fits and infers every debate topic, a warm rerun reads them all
        runs[workers] = [_run_and_collect(config, caplog) for _ in ("miss", "hit")]
        # one thread for the kernels of the miss, each fitting and inferring one topic
        assert len(started) == (1 if workers == 2 else 0)
    assert runs[2] == runs[1]
    (files, logs), _ = runs[2]
    assert "report.json" in files
    assert sum(name.startswith("models/") for name in files) == n_topics
    assert sum(name.startswith("cache/") for name in files) == 2 * n_topics
    theta_topics = [m.split("'")[1] for m in logs if "rows did not converge" in m]
    assert theta_topics and theta_topics == sorted(theta_topics)


def test_theta_warnings_keep_debate_topic_order_on_threads(
    tmp_path, monkeypatch, caplog, topic_threads
):
    test_pipeline_warns_once_per_debate_topic_on_unconverged_theta(tmp_path, monkeypatch, caplog)


def test_small_topic_kernels_start_no_thread(tmp_path, monkeypatch):
    # two cores are usable, but every minicorpus kernel is below the gate
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 2)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread started below the gate")

    monkeypatch.setattr(threading, "Thread", no_thread)
    report = run_pipeline(_config(tmp_path, bootstrap_replicates=20))
    assert report.estimates and not report.failed_cells


def test_large_kernels_run_at_once(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 2)
    large = pipeline._THREAD_MIN_MADDS
    # each wait returns only once both kernels are waiting
    barrier = threading.Barrier(2, timeout=30)
    assert sorted(pipeline._run_kernels([barrier.wait] * 2, [large, large])) == [0, 1]
    # one large kernel alone stays on the calling thread
    idents = []
    pipeline._run_kernels([lambda: idents.append(threading.get_ident())] * 2, [large, large - 1])
    assert idents == [threading.get_ident()] * 2


def test_kernel_threads_take_each_kernel_once(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows
    monkeypatch.setattr(pipeline, "_THREAD_MIN_MADDS", 0)
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 8)
    ran = []

    def kernel(i: int) -> int:
        ran.append(i)
        np.linalg.norm(np.full((64, 64), float(i)))
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = pipeline._run_kernels([functools.partial(kernel, i) for i in range(40)], [1] * 40)
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(40)]
    assert sorted(ran) == list(range(40))


@pytest.mark.parametrize("gate", [0, 2**62])
def test_kernels_raise_the_first_failure_in_order(monkeypatch, gate):
    monkeypatch.setattr(pipeline, "_THREAD_MIN_MADDS", gate)
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 2)

    done = []

    def kernel(i: int) -> int:
        if i in (3, 5):
            raise TopicModelError(f"kernel {i} failed")
        done.append(i)
        return i

    kernels = [functools.partial(kernel, i) for i in range(8)]
    with pytest.raises(TopicModelError, match="^kernel 3 failed$"):
        pipeline._run_kernels(kernels, [1] * 8)
    # threads finish every kernel before the failure is raised; in order,
    # the failure stops the rest
    assert sorted(done) == ([0, 1, 2, 4, 6, 7] if gate == 0 else [0, 1, 2])


# ---------------------------------------------------------------------- cli


def _estimate_args(out_dir, *extra):
    return [
        "estimate",
        "--posts", POSTS,
        "--annotations", ANNOTATIONS,
        "--out-dir", str(out_dir),
        "--seed", "3", "--k", "4", "--folds", "3",
        "--bootstrap-replicates", "0",
        *extra,
    ]


def test_cli_estimate_runs_clean(tmp_path, capsys):
    code = main(_estimate_args(
        tmp_path, "--reply-types", "nasty_nice",
        "--category-types", "linguistic_style",
    ))
    assert code == EXIT_OK
    assert (tmp_path / "report.json").exists()
    stdout = capsys.readouterr().out
    assert "treatment effect estimates" in stdout
    assert "nasty_nice" in stdout


def test_cli_estimate_reports_failed_cells(tmp_path):
    # one-arm annotations: every estimate cell fails but the run completes
    annotations = _one_arm_annotations(tmp_path)
    done = _run_cli(
        "estimate",
        "--posts", POSTS,
        "--annotations", str(annotations),
        "--out-dir", str(tmp_path / "run"),
        "--seed", "3", "--k", "4", "--folds", "3",
        "--bootstrap-replicates", "0",
        "--reply-types", "nasty_nice",
        "--category-types", "linguistic_style",
    )
    assert done.returncode == EXIT_INCOMPLETE, done.stderr
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert len(report["failed_cells"]) == 2
    assert any("share one treatment arm" in w for w in report["warnings"])
    # the report's warnings block (on stdout) names each cell; stderr
    # carries only the CLI's one summary line
    assert done.stdout.count("share one treatment arm") == 2, done.stdout
    assert "estimate cells failed" not in done.stderr
    assert done.stderr.count("requested cells failed") == 1, done.stderr


def test_cli_ingest_prints_counts(capsys):
    # ingest reads neither out_dir nor seed, so it asks for neither
    code = main(["ingest", "--posts", POSTS, "--annotations", ANNOTATIONS])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "nasty_nice" in stdout and "48" in stdout


def _run_cli(
    *args: str, patch: str | None = None, env: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, where logging's last-resort handler shows.

    ``patch`` is Python source that the child runs before the CLI, and
    ``env`` adds to the child's environment.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")])
    )
    if patch is None:
        command = [sys.executable, "-m", "tonefx.harness.cli", *args]
    else:
        run_main = "import sys\nfrom tonefx.harness.cli import main\nsys.exit(main())\n"
        command = [sys.executable, "-c", patch + "\n" + run_main, *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


def _corpus_with_bad_records(tmp_path) -> tuple[Path, Path, list[str]]:
    """Minicorpus copies with one bad record each, and the messages of every
    skipped record and unresolved parent."""
    posts = tmp_path / "posts.jsonl"
    posts.write_text(Path(POSTS).read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text(
        Path(ANNOTATIONS).read_text(encoding="utf-8") + '{"quote_post_id": "post0001"}\n',
        encoding="utf-8",
    )
    loaded_posts, loaded_annotations = load_posts(posts), load_annotations(annotations)
    messages = [
        *loaded_posts.record_errors, *loaded_posts.warnings, *loaded_annotations.record_errors
    ]
    assert len(messages) == 3
    return posts, annotations, messages


@pytest.mark.parametrize("verbose", [False, True])
def test_cli_ingest_prints_each_load_warning_once(tmp_path, verbose):
    # in-process runs would hide logging's last-resort handler behind
    # pytest's own log handlers, so run the command in a child process
    posts, annotations, messages = _corpus_with_bad_records(tmp_path)
    done = _run_cli(
        *["--verbose"] * verbose,
        "ingest", "--posts", str(posts), "--annotations", str(annotations),
        "--out-dir", str(tmp_path / "unused"), "--seed", "1",
    )
    assert done.returncode == EXIT_OK, done.stderr
    for message in messages:
        assert done.stderr.count(message) == 1, done.stderr


@pytest.mark.parametrize("verbose", [False, True])
def test_cli_fit_topics_prints_each_load_warning_once(tmp_path, verbose):
    # fit-topics reads no annotations, so only the posts file's lines show
    posts, annotations, messages = _corpus_with_bad_records(tmp_path)
    done = _run_cli(
        *["--verbose"] * verbose,
        "fit-topics", "--posts", str(posts), "--annotations", str(annotations),
        "--out-dir", str(tmp_path / "run"), "--seed", "3", "--k", "4",
    )
    assert done.returncode == EXIT_OK, done.stderr
    post_messages, annotation_message = messages[:2], messages[2]
    for message in post_messages:
        assert done.stderr.count(message) == 1, done.stderr
        assert f"posts: {message}" in done.stderr
    assert annotation_message not in done.stderr


@pytest.mark.parametrize("verbose", [False, True])
def test_cli_estimate_prints_each_load_warning_once(tmp_path, verbose):
    # as for ingest, logging's last-resort handler only shows in a child process
    posts, annotations, messages = _corpus_with_bad_records(tmp_path)
    out_dir = tmp_path / "run"
    done = _run_cli(
        *["--verbose"] * verbose,
        "estimate", "--posts", str(posts), "--annotations", str(annotations),
        "--out-dir", str(out_dir), "--seed", "3", "--k", "4", "--folds", "8",
        "--bootstrap-replicates", "0", "--reply-types", "nasty_nice",
    )
    assert done.returncode == EXIT_OK, done.stderr
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    for message in messages:
        assert sum(message in warning for warning in report["warnings"]) == 1
        # the table's warnings block on stdout is the one channel, with
        # or without --verbose
        assert done.stdout.count(message) == 1, done.stdout
        assert message not in done.stderr, done.stderr
    # the report does not record skipped cross-validation folds as
    # warnings, so the CLI prints them on stderr, once per confounder variant
    skipped_fold = "fold 4: test split lacks a treatment arm"
    assert not any(skipped_fold in warning for warning in report["warnings"])
    assert done.stderr.count(skipped_fold) == 2, done.stderr
    for variant in ("full", "debate_topics_only"):
        line = f"cross-validation (nasty_nice, {variant}): {skipped_fold}"
        assert done.stderr.count(line) == 1, done.stderr


def test_cli_crossval_prints_each_skipped_fold_once(tmp_path):
    # logging's last-resort handler only shows in a child process
    done = _run_cli(
        "crossval", "--posts", POSTS, "--annotations", ANNOTATIONS,
        "--out-dir", str(tmp_path), "--seed", "3", "--k", "4", "--folds", "8",
        "--reply-types", "nasty_nice",
    )
    assert done.returncode == EXIT_OK, done.stderr
    # one line per confounder variant, naming its cell
    assert done.stderr.count("fold 4: test split lacks a treatment arm") == 2, done.stderr
    assert "cross-validation (nasty_nice, full): fold 4: " in done.stderr


def test_cli_crossval_prints_the_report_warnings(tmp_path):
    done = _run_cli(
        "crossval", "--posts", POSTS, "--annotations", ANNOTATIONS,
        "--out-dir", str(tmp_path), "--seed", "3", "--k", "4", "--folds", "8",
    )
    assert done.returncode == EXIT_OK, done.stderr
    # crossval writes no report files; its report's warnings go to stderr
    assert not list(tmp_path.glob("report.*"))
    config = PipelineConfig(
        posts_path=POSTS, annotations_path=ANNOTATIONS, out_dir=str(tmp_path / "lib"),
        seed=3, k=4, folds=8,
    )
    # both attacking_reasonable variants fail cross-validation and two
    # reply types have no triples; the report and stderr say so, once each
    warnings = run_pipeline(config, run_estimates=False).warnings
    assert sum("cross-validation failed for (attacking_reasonable" in w for w in warnings) == 2
    assert sum(w.startswith("no triples for reply type") for w in warnings) == 2
    for warning in warnings:
        assert done.stderr.count(warning) == 1, done.stderr


def test_cli_failed_run_prints_its_warnings_then_the_error(tmp_path):
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("not json\n", encoding="utf-8")
    done = _run_cli(
        "estimate", "--posts", POSTS, "--annotations", str(annotations),
        "--out-dir", str(tmp_path / "run"), "--seed", "3", "--k", "4",
    )
    assert done.returncode == EXIT_RUNTIME, done.stderr
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert sum(line.startswith("annotations: line 1: invalid JSON") for line in lines) == 1
    assert lines[-1].startswith("error: stage 'triples'"), done.stderr
    assert not (tmp_path / "run" / "report.json").exists()


_HALF_THE_RESAMPLES_SINGLE_ARM = """
import itertools
from tonefx import estimators
calls, draw = itertools.count(), estimators._resample_indices
estimators._resample_indices = lambda *args: None if next(calls) % 2 else draw(*args)
"""


@pytest.mark.parametrize("verbose", [False, True])
def test_cli_bootstrap_skips_reach_the_report_only(tmp_path, verbose):
    out_dir = tmp_path / "run"
    done = _run_cli(
        *["--verbose"] * verbose,
        "estimate", "--posts", POSTS, "--annotations", ANNOTATIONS,
        "--out-dir", str(out_dir), "--seed", "3", "--k", "4", "--folds", "3",
        "--bootstrap-replicates", "6", "--reply-types", "nasty_nice",
        "--category-types", "positive_sentiment", "--variants", "full",
        patch=_HALF_THE_RESAMPLES_SINGLE_ARM,
    )
    assert done.returncode == EXIT_OK, done.stderr
    line = "cell (nasty_nice, positive_sentiment, full): 3 of 6 bootstrap replicates skipped"
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["warnings"].count(line) == 1
    assert done.stdout.count(line) == 1, done.stdout
    assert "skipped" not in done.stderr, done.stderr


# each turns one record into a bad one, whatever the record
_BREAK_RECORD = {
    "garbage": lambda raw: b"not json",
    "truncated": lambda raw: raw[: len(raw) // 2],
    "not utf-8": lambda raw: b"\xff" + raw,
    "array": lambda raw: b"[" + raw + b"]",
    "missing field": lambda raw: json.dumps(
        {k: v for k, v in json.loads(raw).items() if k not in ("id", "quote_post_id")}
    ).encode(),
    "mistyped field": lambda raw: json.dumps(
        {**json.loads(raw), "position": "1", "mean_score": "1"}
    ).encode(),
}


@settings(deadline=None, max_examples=10)
@given(
    st.dictionaries(
        st.tuples(st.just("posts"), st.integers(1, 202))
        | st.tuples(st.just("annotations"), st.integers(1, 59)),
        st.sampled_from(sorted(_BREAK_RECORD)),
        min_size=1,
        max_size=6,
    )
)
def test_cli_ingest_names_each_bad_line_once(breaks):
    # each case starts an interpreter, so the case count stays small;
    # a bad line is named once, and no other line is named
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, source in (("posts", POSTS), ("annotations", ANNOTATIONS)):
            lines = Path(source).read_bytes().splitlines()
            for (file, lineno), mutation in breaks.items():
                if file == name:
                    lines[lineno - 1] = _BREAK_RECORD[mutation](lines[lineno - 1])
            paths[name] = Path(tmp) / f"{name}.jsonl"
            paths[name].write_bytes(b"\n".join(lines) + b"\n")
        done = _run_cli(
            "ingest", "--posts", str(paths["posts"]),
            "--annotations", str(paths["annotations"]), "--out-dir", tmp, "--seed", "1",
        )
    assert "Traceback" not in done.stderr
    # every mutation leaves a record that is skipped, so ingest completes
    assert done.returncode == EXIT_OK, done.stderr
    lines = done.stderr.splitlines()
    assert max(Counter(lines).values()) == 1, done.stderr
    named = [re.search(r"\bline (\d+): ", line) for line in lines]
    assert sorted(int(m[1]) for m in named if m) == sorted(n for _, n in breaks), done.stderr
    for file, lineno in breaks:
        assert sum(line.startswith(f"{file}: line {lineno}: ") for line in lines) == 1


def test_cli_estimate_skips_non_utf8_lines(tmp_path):
    posts = tmp_path / "posts.jsonl"
    posts.write_bytes(Path(POSTS).read_bytes() + b'{"id": "caf\xe9"}\n')
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_bytes(b"\xff\n" + Path(ANNOTATIONS).read_bytes())
    out_dir = tmp_path / "run"
    done = _run_cli(
        "estimate", "--posts", str(posts), "--annotations", str(annotations),
        "--out-dir", str(out_dir), "--seed", "3", "--k", "4", "--folds", "3",
        "--bootstrap-replicates", "0", "--reply-types", "nasty_nice",
        "--category-types", "linguistic_style",
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "Traceback" not in done.stderr
    bad_post_line = len(Path(POSTS).read_bytes().splitlines()) + 1
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert f"posts: line {bad_post_line}: not valid UTF-8" in report["warnings"]
    assert "annotations: line 1: not valid UTF-8" in report["warnings"]
    assert report["triple_counts"]["nasty_nice"]["total"] == 48


def test_cli_missing_file_is_usage_error(tmp_path, capsys):
    code = main(_estimate_args(tmp_path, "--posts", str(tmp_path / "nope.jsonl")))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["ingest", "fit-topics", "crossval", "estimate"])
def test_cli_corpus_that_fails_to_load_is_usage_error(tmp_path, command):
    # every command that reads the corpus rejects it the same way
    posts = tmp_path / "posts.jsonl"
    text = Path(POSTS).read_text(encoding="utf-8")
    posts.write_text(text + text.splitlines()[0] + "\n", encoding="utf-8")
    done = _run_cli(
        command, "--posts", str(posts), "--annotations", ANNOTATIONS,
        "--out-dir", str(tmp_path / "run"), "--seed", "3", "--k", "4", "--folds", "3",
    )
    assert done.returncode == EXIT_USAGE, done.stderr
    assert "Traceback" not in done.stderr
    error = done.stderr.splitlines()[-1]
    assert error.startswith("error: ") and "duplicate post id 'post0000' at line 203" in error


@pytest.mark.parametrize("command", ["fit-topics", "estimate"])
def test_cli_unwritable_out_dir_is_runtime_error(tmp_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    done = _run_cli(
        command, "--posts", POSTS, "--annotations", ANNOTATIONS,
        "--out-dir", str(blocker / "sub"), "--seed", "3", "--k", "4", "--folds", "3",
    )
    assert done.returncode == EXIT_RUNTIME, done.stderr
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "Not a directory" in errors[0], done.stderr


_UNREADABLE_PATHS = [
    ("ingest", "--posts"), ("estimate", "--posts"), ("estimate", "--lexicon"),
    ("estimate", "--grouping"), ("estimate", "--config"), ("inspect-topics", None),
    ("report", None),
]


@pytest.mark.parametrize("command,flag,content,message", [
    # a directory exists but cannot be read as a file, like a missing file
    *[pytest.param(command, flag, None, "Is a directory", id=f"{command}-{flag}")
      for command, flag in _UNREADABLE_PATHS],
    pytest.param("estimate", "--lexicon", b"# caf\xe9\n", "line 1: not valid UTF-8",
                 id="estimate---lexicon-latin1"),
    pytest.param("estimate", "--grouping", b"[positive_sentiment]\n# caf\xe9\n",
                 "line 2: not valid UTF-8", id="estimate---grouping-latin1"),
])
def test_cli_input_path_that_cannot_be_read_is_usage_error(
    tmp_path, capsys, command, flag, content, message
):
    unreadable = str(MINICORPUS.parent)
    if content is not None:
        unreadable = str(tmp_path / "latin1.txt")
        Path(unreadable).write_bytes(content)
    args = [command, unreadable] if flag is None else [
        command, "--posts", POSTS, "--annotations", ANNOTATIONS,
        "--out-dir", str(tmp_path / "run"), "--seed", "3", flag, unreadable,
    ]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("error: ")]
    assert errors == err[-1:] and message in errors[0], err


_UTF16 = b"\xff\xfe{\x00}\x00"
_DEEP = b"[" * 100_000 + b"]" * 100_000
_LONG_INTEGER = b'{"seed": ' + b"9" * 5_000 + b"}"


@pytest.mark.parametrize("command,content,message", [
    pytest.param("estimate --config", _UTF16, "not valid UTF-8", id="estimate --config"),
    pytest.param("report", _UTF16, "not valid UTF-8", id="report"),
    *[pytest.param(command, _DEEP, "invalid JSON (nested too deeply)", id=f"{command}-deep")
      for command in ("estimate --config", "report", "inspect-topics")],
    *[pytest.param(command, _LONG_INTEGER, "invalid JSON (an integer has more than",
                   id=f"{command}-long-integer")
      for command in ("estimate --config", "report")],
])
def test_cli_file_that_is_not_utf8_is_usage_error(tmp_path, command, content, message):
    # not UTF-8, or JSON that Python's decoder cannot hold, is not JSON
    path = tmp_path / "input.json"
    path.write_bytes(content)
    done = _run_cli(*command.split(), str(path))
    assert done.returncode == EXIT_USAGE, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert message in done.stderr


def test_cli_bad_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "posts_path": POSTS, "annotations_path": ANNOTATIONS,
        "out_dir": str(tmp_path), "seed": 1, "mystery": True,
    }))
    assert main(["estimate", "--config", str(config)]) == EXIT_USAGE
    config.write_text("{broken")
    assert main(["estimate", "--config", str(config)]) == EXIT_USAGE


def test_cli_rejects_mistyped_config_field(tmp_path):
    # a child process shows what a user sees: the exit code and stderr;
    # test_report.py checks each field's message in-process
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "posts_path": POSTS, "annotations_path": ANNOTATIONS,
        "out_dir": str(tmp_path / "run"), "seed": 1, "bootstrap_replicates": 2.5,
    }))
    done = _run_cli("estimate", "--config", str(config))
    assert done.returncode == EXIT_USAGE, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: bootstrap_replicates"), done.stderr
    assert not (tmp_path / "run").exists()


def test_cli_rejects_a_config_that_turns_the_cache_off(tmp_path):
    # every run reads and writes the topic cache; a config that would turn it off is an error
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "posts_path": POSTS, "annotations_path": ANNOTATIONS,
        "out_dir": str(tmp_path / "run"), "seed": 1, "use_cache": False,
    }))
    done = _run_cli("estimate", "--config", str(config))
    assert done.returncode == EXIT_USAGE, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: unknown config fields: ['use_cache']\n"
    assert not (tmp_path / "run").exists()


def test_cli_fit_topics_and_inspect(tmp_path, capsys):
    # fit-topics reads no annotations, so it asks for none
    code = main([
        "fit-topics", "--posts", POSTS, "--out-dir", str(tmp_path), "--seed", "3", "--k", "4",
    ])
    assert code == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "models").iterdir()) == [
        "evolution.json", "gun-control.json",
    ]
    model_path = tmp_path / "models" / "evolution.json"
    capsys.readouterr()
    assert main(["inspect-topics", str(model_path), "--words", "5"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "topic 0:" in stdout
    assert main(["inspect-topics", str(tmp_path / "missing.json")]) == EXIT_USAGE
    # a flag value that argparse parses but the command rejects is a usage error
    capsys.readouterr()
    assert main(["inspect-topics", str(model_path), "--words", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --words must be positive, got 0\n"
    # a malformed model file is bad input: one error line, no traceback
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    for text in ("[1]", "{", json.dumps({**payload, "format_version": "2.0"}),
                 json.dumps({**payload, "k": "4"}), json.dumps({**payload, "elbo_trace": []})):
        bad.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["inspect-topics", str(bad)]) == EXIT_USAGE, text
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad.json: "), err


@pytest.mark.parametrize("command", ["ingest", "estimate"])
def test_cli_commands_that_read_annotations_require_them(tmp_path, capsys, command):
    code = main([command, "--posts", POSTS, "--out-dir", str(tmp_path), "--seed", "3"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: missing required config fields: ['annotations_path']\n"
    )
    assert not list(tmp_path.iterdir())


def test_cli_crossval(tmp_path, capsys):
    code = main([
        "crossval",
        "--posts", POSTS, "--annotations", ANNOTATIONS,
        "--out-dir", str(tmp_path), "--seed", "3", "--k", "4", "--folds", "3",
        "--reply-types", "nasty_nice",
    ])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "rmse" in stdout and "f1" in stdout


def test_cli_crossval_leaves_estimate_report_in_place(tmp_path, capsys):
    flags = ["--reply-types", "nasty_nice"]
    assert main(_estimate_args(tmp_path, *flags)) == EXIT_OK
    names = ("report.json", "report.txt", "report.csv")
    written = {name: (tmp_path / name).read_bytes() for name in names}
    assert json.loads(written["report.json"])["estimates"]
    crossval = ["crossval", *_estimate_args(tmp_path, *flags)[1:]]
    assert main(crossval) == EXIT_OK
    assert "folds=3" in capsys.readouterr().out
    assert {name: (tmp_path / name).read_bytes() for name in names} == written


def test_cli_simulate_then_estimate(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code = main([
        "simulate", "--triples", "40", "--seed", "5", "--out-dir", str(corpus),
    ])
    assert code == EXIT_OK
    truth = json.loads((corpus / "truth.json").read_text())
    assert truth["n_triples"] == 40
    assert (corpus / "posts.jsonl").exists()
    assert (corpus / "annotations.jsonl").exists()
    capsys.readouterr()
    code = main([
        "estimate",
        "--posts", str(corpus / "posts.jsonl"),
        "--annotations", str(corpus / "annotations.jsonl"),
        "--out-dir", str(tmp_path / "run"),
        "--seed", "5", "--k", "3", "--folds", "3",
        "--bootstrap-replicates", "0",
        "--reply-types", "nasty_nice",
        "--category-types", "positive_sentiment",
    ])
    assert code == EXIT_OK


@pytest.mark.parametrize("flags,message", [
    (["--seed", "-1"], "seed must lie in [0, 2**63)"),
    (["--effect", "nan"], "effect must be finite"),
    (["--drift", "-5"], "lowest injection rate"),
    (["--confounding", "nan"], "stance_to_treatment must be finite"),
    (["--triples", "5"], "need at least 10 triples"),
], ids=["negative-seed", "nan-effect", "negative-rate", "nan-confounding", "few-triples"])
def test_cli_simulate_rejects_impossible_worlds(tmp_path, capsys, flags, message):
    corpus = tmp_path / "corpus"
    # argparse keeps the last --seed
    assert main(["simulate", "--seed", "1", "--out-dir", str(corpus), *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not corpus.exists()


def test_cli_report_formats(tmp_path, capsys):
    main(_estimate_args(tmp_path, "--reply-types", "nasty_nice",
                        "--category-types", "linguistic_style"))
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    for fmt, needle in (
        ("structured", '"format": "tonefx-report"'),
        ("table", "treatment effect estimates"),
        ("delimited", "estimator,reply_type"),
    ):
        assert main(["report", str(report_path), "--format", fmt]) == EXIT_OK
        assert needle in capsys.readouterr().out
    assert main(["report", str(tmp_path / "absent.json")]) == EXIT_USAGE


@pytest.mark.parametrize(
    "field,value",
    [
        ("cv", [{}]),
        ("estimator", "median"),
        ("estimates", 5),
        ("psi", "large"),
        ("warnings", "abc"),
    ],
    ids=[
        "empty-cv-entry", "unknown-estimator", "estimates-not-a-list", "psi-not-a-number",
        "warnings-not-a-list",
    ],
)
def test_cli_report_on_malformed_document_is_usage_error(tmp_path, field, value):
    estimate = {
        "estimator": "q", "psi": -0.3, "standard_error": 0.1, "n": 48,
        "reply_type": "nasty_nice", "category_type": "linguistic_style",
        "aipw_variant": None, "confounder_variant": "full",
    }
    document = {
        "format": "tonefx-report", "version": "1.0", "cv": [], "estimates": [estimate],
        "warnings": [],
    }
    if field in document:
        document[field] = value
    else:
        estimate[field] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    done = _run_cli("report", str(path))
    assert done.returncode == EXIT_USAGE, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: malformed report entry: "), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("fmt", ["structured", "table", "delimited"])
def test_cli_report_rejects_unknown_category_type_in_every_format(tmp_path, capsys, fmt):
    main(_estimate_args(tmp_path, "--reply-types", "nasty_nice",
                        "--category-types", "linguistic_style"))
    document = json.loads((tmp_path / "report.json").read_text())
    document["estimates"][0]["category_type"] = "abc"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(path), "--format", fmt]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: malformed report entry: category_type must be one of "), err


def test_cli_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", "--frobnicate"])
    assert excinfo.value.code == 2


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_USAGE, EXIT_RUNTIME, EXIT_INCOMPLETE}) == 4


def test_readme_library_snippet_runs(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    for old, new in (
        ('"corpus/posts.jsonl"', repr(POSTS)),
        ('"corpus/annotations.jsonl"', repr(ANNOTATIONS)),
        ('"run"', repr(str(tmp_path))),
        ("k=6,", "k=6, bootstrap_replicates=20,"),
    ):
        assert snippet.count(old) == 1, old
        snippet = snippet.replace(old, new)
    exec(compile(snippet, "README.md", "exec"), {})
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert capsys.readouterr().out.count("\n") == len(report["estimates"]) > 0
