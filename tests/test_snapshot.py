"""The minicorpus report.json, pinned byte for byte.

The run uses every reply type, the default analysis grid and a small
bootstrap, so the snapshot covers the point estimates, the standard
errors, the cross-validation numbers and the warning lines.  Fields that
hold file system paths are masked before the comparison.  The minicorpus
bootstrap never skips a replicate, so a second run forces skips and pins
the one warning line per cell they produce.
"""

import itertools
import re
from pathlib import Path

from tonefx import estimators
from tonefx.harness.config import PipelineConfig
from tonefx.harness.pipeline import run_pipeline

from conftest import DATA_DIR, MINICORPUS

SNAPSHOT = DATA_DIR / "minicorpus_report.json"
PATH_FIELDS = ("posts_path", "annotations_path", "out_dir", "lexicon_path", "grouping_path")
_PATH_LINE = re.compile(
    r'^(\s*"(?:' + "|".join(PATH_FIELDS) + r')": )"(?:[^"\\]|\\.)*"(,?)$', re.MULTILINE
)


def masked_report(out_dir: Path) -> str:
    """Run the snapshot configuration and return report.json with paths masked."""
    config = PipelineConfig(
        posts_path=str(MINICORPUS / "posts.jsonl"),
        annotations_path=str(MINICORPUS / "annotations.jsonl"),
        out_dir=str(out_dir),
        seed=3,
        k=4,
        lda_max_iters=40,
        folds=3,
        bootstrap_replicates=20,
    )
    run_pipeline(config)
    text = (Path(out_dir) / "report.json").read_text(encoding="utf-8")
    return _PATH_LINE.sub(r'\1"<path>"\2', text)


def test_minicorpus_report_matches_snapshot(tmp_path):
    text = masked_report(tmp_path)
    assert text.count('"<path>"') == len(PATH_FIELDS)
    assert text == SNAPSHOT.read_text(encoding="utf-8")


def test_skipped_replicate_warning_lines(tmp_path, monkeypatch):
    # every other resample counts as single-arm, so the cell's one
    # bootstrap pass skips half of its replicates for every estimator
    calls = itertools.count()
    draw = estimators._resample_indices

    def flaky(rng, treatments, max_redraws):
        idx = draw(rng, treatments, max_redraws)
        return None if next(calls) % 2 else idx

    monkeypatch.setattr(estimators, "_resample_indices", flaky)
    config = PipelineConfig(
        posts_path=str(MINICORPUS / "posts.jsonl"),
        annotations_path=str(MINICORPUS / "annotations.jsonl"),
        out_dir=str(tmp_path),
        seed=3,
        k=4,
        lda_max_iters=40,
        folds=3,
        reply_types=("nasty_nice",),
        category_types=("positive_sentiment",),
        confounder_variants=("full",),
        bootstrap_replicates=6,
    )
    report = run_pipeline(config)
    assert report.warnings[-2:] == [
        "posts: post 'post0201': parent 'no-such-post' not found, treated as absent",
        "cell (nasty_nice, positive_sentiment, full): 3 of 6 bootstrap replicates skipped",
    ]
    assert all(est.standard_error is not None for est in report.estimates)
