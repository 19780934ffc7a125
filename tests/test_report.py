"""Run configuration and the three report renderings."""

import csv
import dataclasses
import io
import json
from pathlib import Path

import pytest

from tonefx.estimators import AipwVariant, AteEstimate, Estimator
from tonefx.harness.config import (
    ConfigError,
    PipelineConfig,
    config_from_dict,
    load_config,
    save_config,
)
from tonefx.harness.report import (
    REPORT_FORMAT_VERSION,
    ReportError,
    RunReport,
    format_cell,
    parse_report,
    render_report,
    triple_summary,
)
from tonefx.inference import ConfounderVariant, CvReport
from tonefx.lexicon import CategoryType

GOLDEN = Path(__file__).parent / "data" / "golden_report.txt"


# ----------------------------------------------------------------- config


def _minimal(**overrides) -> PipelineConfig:
    base = dict(
        posts_path="posts.jsonl", annotations_path="ann.jsonl",
        out_dir="out", seed=7,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def test_config_defaults_frozen():
    config = _minimal()
    assert config.k == 50
    assert config.min_df == 0.02 and config.max_df == 0.80
    assert config.folds == 5
    assert config.regularization == 1e-4
    assert config.clip_epsilon == 0.01
    assert config.bootstrap_replicates == 1000
    assert config.aipw_variant is AipwVariant.STABILIZED
    assert config.cv_category_type is CategoryType.POSITIVE_SENTIMENT
    assert list(config.confounder_variants) == list(ConfounderVariant)
    assert list(config.estimators) == list(Estimator)
    assert Path(config.lexicon_path).name == "lexicon.txt"


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"k": 1}, "k"),
        ({"folds": 1}, "folds"),
        ({"min_df": 0.9, "max_df": 0.8}, "min_df"),
        ({"clip_epsilon": 0.5}, "clip_epsilon"),
        ({"regularization": -1.0}, "regularization"),
        ({"jobs": 0}, "jobs"),
        ({"reply_types": ()}, "reply_types"),
        ({"seed": "seven"}, "seed"),
    ],
)
def test_config_validation_rejects(overrides, message):
    with pytest.raises(ConfigError, match=message):
        _minimal(**overrides).validate()


def test_config_from_dict_rejects_unknown_and_missing():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({
            "posts_path": "p", "annotations_path": "a", "out_dir": "o",
            "seed": 1, "mystery_knob": 3,
        })
    with pytest.raises(ConfigError, match="out_dir"):
        config_from_dict({"posts_path": "p", "annotations_path": "a", "seed": 1})


def test_config_roundtrip_and_overrides(tmp_path):
    config = _minimal(k=12, reply_types=("nasty_nice",))
    path = tmp_path / "config.json"
    save_config(config, path)
    again = load_config(path)
    assert again == config
    bumped = load_config(path, overrides={"seed": 99})
    assert bumped.seed == 99 and bumped.k == 12


def test_config_to_dict_is_json_safe():
    payload = _minimal().to_dict()
    json.dumps(payload)  # enums must already be plain strings
    assert payload["aipw_variant"] == "stabilized"
    assert payload["confounder_variants"] == ["full", "debate_topics_only"]


# ---------------------------------------------------------------- reports


def _sample_report() -> RunReport:
    cv = CvReport(
        fold_count=5, rmse_q1=(0.11, 0.12, 0.10, 0.13, 0.11),
        rmse_q0=(0.09, 0.10, 0.11, 0.10, 0.09), f1=(0.61, 0.64, 0.60, 0.63, 0.62),
        skipped_folds=(), reply_type="nasty_nice", variant="full",
        category_type="positive_sentiment",
    )
    estimates = []
    for ct in ("positive_sentiment", "negative_sentiment", "linguistic_style"):
        for est in Estimator:
            psi = {"unadjusted": -0.45, "q": -0.32, "ipw": -0.28, "aipw": -0.30}[est.value]
            se = 0.1 if est is not Estimator.IPW else None
            estimates.append(AteEstimate(
                estimator=est, psi=psi, standard_error=se, n=48,
                reply_type="nasty_nice", category_type=ct,
                aipw_variant=AipwVariant.STABILIZED if est is Estimator.AIPW else None,
                confounder_variant="full",
            ))
    return RunReport(
        config={"seed": 7},
        triple_counts={"nasty_nice": {
            "total": 48, "treated": 22, "control": 26,
            "per_topic": {"evolution": 20, "gun control": 28},
        }},
        cv_reports=[cv],
        estimates=estimates,
        topic_top_words={
            "gun control": [["gun", "law", "right"], ["crime", "state", "court"]]
        },
        warnings=["reply type 'emotional_factual': no triples extracted"],
        timings={"topics": 1.25},
    )


def test_structured_roundtrip_is_byte_identical():
    report = _sample_report()
    text = render_report(report, fmt="structured")
    rebuilt = parse_report(text)
    assert render_report(rebuilt, fmt="structured") == text
    assert rebuilt.estimates[0].psi == report.estimates[0].psi
    assert rebuilt.cv_reports[0].f1 == report.cv_reports[0].f1
    assert rebuilt.estimates[3].aipw_variant is AipwVariant.STABILIZED


def test_structured_excludes_timings_by_default():
    report = _sample_report()
    assert "timings" not in json.loads(render_report(report))


def test_renderings_leave_out_bootstrap_skips():
    report = _sample_report()
    text = {fmt: render_report(report, fmt) for fmt in ("structured", "table", "delimited")}
    report.estimates = [
        dataclasses.replace(est, bootstrap_skipped=3) for est in report.estimates
    ]
    for fmt, expected in text.items():
        assert render_report(report, fmt) == expected


def test_structured_document_keys_are_sorted():
    text = render_report(_sample_report())
    document = json.loads(text)
    assert document["format"] == "tonefx-report"
    assert document["version"] == REPORT_FORMAT_VERSION
    assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_parse_report_rejects_foreign_documents():
    with pytest.raises(ReportError, match="not valid JSON"):
        parse_report("{nope")
    document = json.loads(render_report(_sample_report()))
    document["version"] = "2.0"
    with pytest.raises(ReportError, match="version"):
        parse_report(json.dumps(document))
    document["version"] = REPORT_FORMAT_VERSION
    document["format"] = "other"
    with pytest.raises(ReportError, match="not a structured run report"):
        parse_report(json.dumps(document))


def test_format_cell_wording():
    assert format_cell(-0.3, 0.1, True) == "-0.3 (0.1)*"
    assert format_cell(-0.3, 0.1, False) == "-0.3 (0.1)"
    assert format_cell(1.28, None, None) == "1.3 (-)"


def test_table_matches_golden():
    assert render_report(_sample_report(), fmt="table") == GOLDEN.read_text()


def test_delimited_rendering_parses_as_csv():
    text = render_report(_sample_report(), fmt="delimited")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 12
    first = rows[0]
    assert first["estimator"] == "unadjusted"
    assert float(first["psi"]) == -0.45
    assert first["significant"] == "true"
    ipw = [r for r in rows if r["estimator"] == "ipw"][0]
    assert ipw["standard_error"] == "" and ipw["significant"] == ""
    aipw = [r for r in rows if r["estimator"] == "aipw"][0]
    assert aipw["aipw_variant"] == "stabilized"


def test_render_report_rejects_unknown_format():
    with pytest.raises(ReportError, match="unknown report format"):
        render_report(_sample_report(), fmt="yaml")


def test_triple_summary_counts(posts, annotations):
    from tonefx.corpus import ReplyType, extract_triples

    triples = extract_triples(posts, annotations, ReplyType.NASTY_NICE)
    block = triple_summary(triples)
    assert block["total"] == 48
    assert block["treated"] == 22
    assert block["control"] == 26
    assert list(block["per_topic"]) == sorted(block["per_topic"])
    assert sum(block["per_topic"].values()) == 48
