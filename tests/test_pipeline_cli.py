"""End-to-end pipeline runs on the committed mini corpus, plus the CLI."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tonefx import lexicon
from tonefx.corpus import extract_triples, load_annotations, load_posts
from tonefx.harness import pipeline
from tonefx.harness.cli import EXIT_INCOMPLETE, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from tonefx.harness.config import PipelineConfig
from tonefx.harness.pipeline import PipelineError, run_pipeline
from tonefx.harness.report import parse_report, render_report
from tonefx.topics import Tokenizer, default_tokenizer, load_model, save_model, surface_tokenizer

from conftest import MINICORPUS

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
    assert len(list((out / "cache").iterdir())) == 2
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


def test_pipeline_recovers_from_corrupt_cache(tmp_path):
    config = _config(tmp_path, reply_types=("nasty_nice",),
                     category_types=("linguistic_style",))
    baseline = run_pipeline(config)
    for entry in (tmp_path / "cache").iterdir():
        entry.write_text("{broken")
    repaired = run_pipeline(config)
    assert sum("cache entry" in w and "refitting" in w for w in repaired.warnings) == 2
    assert [e.psi for e in repaired.estimates] == [e.psi for e in baseline.estimates]


def test_pipeline_cache_disabled(tmp_path):
    run_pipeline(_config(tmp_path, use_cache=False, reply_types=("nasty_nice",),
                         category_types=("linguistic_style",)))
    assert not (tmp_path / "cache").exists()
    assert sorted(p.name for p in (tmp_path / "models").iterdir()) == [
        "evolution.json", "gun-control.json",
    ]


def _count_featurization(monkeypatch) -> tuple[Counter, Counter, Counter]:
    """Count tokenizer calls per (tokenizer, text), vectorize_post calls per
    text and categorize_token calls per token form."""
    tokenized: Counter = Counter()
    vectorized: Counter = Counter()
    categorized: Counter = Counter()
    tokenize, vectorize = Tokenizer.__call__, lexicon.vectorize_post
    categorize = lexicon.categorize_token

    def counting_tokenize(self, text):
        tokenized[(self, text)] += 1
        return tokenize(self, text)

    def counting_vectorize(*args):
        vectorized[args[2]] += 1  # (lexicon, grouping, text)
        return vectorize(*args)

    def counting_categorize(lexicon_, token):
        categorized[token] += 1
        return categorize(lexicon_, token)

    monkeypatch.setattr(Tokenizer, "__call__", counting_tokenize)
    for module in (lexicon, pipeline):
        monkeypatch.setattr(module, "vectorize_post", counting_vectorize)
    monkeypatch.setattr(lexicon, "categorize_token", counting_categorize)
    return tokenized, vectorized, categorized


def test_pipeline_featurizes_each_post_once(tmp_path, monkeypatch):
    config = _config(tmp_path)
    posts, annotations = load_posts(POSTS), load_annotations(ANNOTATIONS)
    assert len({post.text for post in posts}) == len(posts)
    triples = [
        triple
        for reply_type in config.reply_types
        for triple in extract_triples(posts, annotations, reply_type)
    ]
    tokenized, vectorized, categorized = _count_featurization(monkeypatch)
    for cache in ("miss", "hit"):
        tokenized.clear()
        vectorized.clear()
        categorized.clear()
        run_pipeline(config)
        assert max(tokenized.values()) == 1, cache
        assert max(vectorized.values()) == 1, cache
        assert set(vectorized) == {t.p1.text for t in triples} | {t.p3.text for t in triples}
        # each run loads its own lexicon, which categorizes each surface form once
        assert max(categorized.values()) == 1, cache
        assert set(categorized) == {
            form for text in vectorized for form in surface_tokenizer()(text)
        }
        default_texts = {text for tok, text in tokenized if tok == default_tokenizer()}
        if cache == "miss":
            assert default_texts == {post.text for post in posts}
        else:
            # the cached models need no tokens; the confounders read p1 and p2
            assert default_texts == {t.p1.text for t in triples} | {t.p2.text for t in triples}
            assert len(default_texts) < len(posts)


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
        entries = sorted((tmp_path / "cache").iterdir())
        assert [entry.name.split("-")[1] for entry in entries] == ["evolution", "gun"]
        for slug, entry in zip(("evolution", "gun-control"), entries):
            published = (tmp_path / "models" / f"{slug}.json").read_bytes()
            assert published == entry.read_bytes(), cache
            save(load_model(entry), tmp_path / "resaved.json")
            assert published == (tmp_path / "resaved.json").read_bytes(), cache


def test_pipeline_parallel_matches_serial(tmp_path):
    serial = run_pipeline(_config(tmp_path / "s", jobs=1, reply_types=("nasty_nice",)))
    parallel = run_pipeline(_config(tmp_path / "p", jobs=2, reply_types=("nasty_nice",)))
    key = lambda e: (e.reply_type, e.category_type, e.confounder_variant, e.estimator.value)
    assert [key(e) for e in serial.estimates] == [key(e) for e in parallel.estimates]
    np.testing.assert_array_equal(
        [e.psi for e in serial.estimates], [e.psi for e in parallel.estimates]
    )


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
    with pytest.raises(PipelineError, match="stage 'triples'"):
        run_pipeline(config)


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
    kept = [
        line for line in Path(ANNOTATIONS).read_text().splitlines()
        if json.loads(line)["reply_type"] == "nasty_nice"
        and json.loads(line)["mean_score"] >= 1.0
    ]
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("\n".join(kept) + "\n")
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
    code = main(["ingest", "--posts", POSTS, "--annotations", ANNOTATIONS,
                 "--out-dir", "unused", "--seed", "0"])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "nasty_nice" in stdout and "48" in stdout


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, where logging's last-resort handler shows."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")])
    )
    command = [sys.executable, "-m", "tonefx.harness.cli", *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("verbose", [False, True])
def test_cli_ingest_prints_each_load_warning_once(tmp_path, verbose):
    # in-process runs would hide logging's last-resort handler behind
    # pytest's own log handlers, so run the command in a child process
    posts = tmp_path / "posts.jsonl"
    posts.write_text(Path(POSTS).read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text(
        Path(ANNOTATIONS).read_text(encoding="utf-8") + '{"quote_post_id": "post0001"}\n',
        encoding="utf-8",
    )
    done = _run_cli(
        *["--verbose"] * verbose,
        "ingest", "--posts", str(posts), "--annotations", str(annotations),
        "--out-dir", str(tmp_path / "unused"), "--seed", "1",
    )
    assert done.returncode == EXIT_OK, done.stderr
    loaded_posts, loaded_annotations = load_posts(posts), load_annotations(annotations)
    messages = [
        *loaded_posts.record_errors, *loaded_posts.warnings, *loaded_annotations.record_errors
    ]
    assert len(messages) == 3
    for message in messages:
        assert done.stderr.count(message) == 1, done.stderr


@pytest.mark.parametrize("verbose", [False, True])
def test_cli_estimate_prints_each_load_warning_once(tmp_path, verbose):
    # as for ingest, logging's last-resort handler only shows in a child process
    posts = tmp_path / "posts.jsonl"
    posts.write_text(Path(POSTS).read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text(
        Path(ANNOTATIONS).read_text(encoding="utf-8") + '{"quote_post_id": "post0001"}\n',
        encoding="utf-8",
    )
    out_dir = tmp_path / "run"
    done = _run_cli(
        *["--verbose"] * verbose,
        "estimate", "--posts", str(posts), "--annotations", str(annotations),
        "--out-dir", str(out_dir), "--seed", "3", "--k", "4", "--folds", "8",
        "--bootstrap-replicates", "0", "--reply-types", "nasty_nice",
    )
    assert done.returncode == EXIT_OK, done.stderr
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    loaded_posts, loaded_annotations = load_posts(posts), load_annotations(annotations)
    messages = [
        *loaded_posts.record_errors, *loaded_posts.warnings, *loaded_annotations.record_errors
    ]
    assert len(messages) == 3
    for message in messages:
        assert sum(message in warning for warning in report["warnings"]) == 1
        assert done.stdout.count(message) == 1, done.stdout
        # --verbose logs every step to stderr, load warnings included
        assert done.stderr.count(message) == verbose, done.stderr
    # the report does not record skipped cross-validation folds as
    # warnings, so they stay on stderr, once per confounder variant
    skipped_fold = "fold 4: test split lacks a treatment arm"
    assert not any(skipped_fold in warning for warning in report["warnings"])
    assert done.stderr.count(skipped_fold) == 2, done.stderr


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


def test_cli_bad_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "posts_path": POSTS, "annotations_path": ANNOTATIONS,
        "out_dir": str(tmp_path), "seed": 1, "mystery": True,
    }))
    assert main(["estimate", "--config", str(config)]) == EXIT_USAGE
    config.write_text("{broken")
    assert main(["estimate", "--config", str(config)]) == EXIT_USAGE


def test_cli_fit_topics_and_inspect(tmp_path, capsys):
    code = main([
        "fit-topics",
        "--posts", POSTS, "--annotations", ANNOTATIONS,
        "--out-dir", str(tmp_path), "--seed", "3", "--k", "4",
    ])
    assert code == EXIT_OK
    model_path = tmp_path / "models" / "evolution.json"
    assert model_path.exists()
    capsys.readouterr()
    assert main(["inspect-topics", str(model_path), "--words", "5"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "topic 0:" in stdout
    assert main(["inspect-topics", str(tmp_path / "missing.json")]) == EXIT_USAGE


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


def test_cli_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", "--frobnicate"])
    assert excinfo.value.code == 2


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_USAGE, EXIT_RUNTIME, EXIT_INCOMPLETE}) == 4
