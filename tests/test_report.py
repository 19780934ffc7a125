"""Run configuration and the three report renderings."""

import csv
import dataclasses
import io
import json
import re
import typing
from enum import Enum
from pathlib import Path

import pytest

from tonefx.estimators import AipwVariant, AteEstimate, Estimator
from tonefx.harness.config import (
    ConfigError,
    PipelineConfig,
    config_from_dict,
    load_config,
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
GOLDEN_CSV = Path(__file__).parent / "data" / "golden_report.csv"


# ----------------------------------------------------------------- config


_BASE = dict(posts_path="posts.jsonl", annotations_path="ann.jsonl", out_dir="out", seed=7)


def _minimal(**overrides) -> PipelineConfig:
    return PipelineConfig(**{**_BASE, **overrides})


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


def test_config_null_paths_take_shipped_files():
    # a config file's "lexicon_path": null means the shipped lexicon, as "" does
    config = _minimal(lexicon_path=None, grouping_path=None)
    assert config == _minimal()
    assert Path(config.grouping_path).name == "grouping.txt"


# a value of another JSON type than the field's: a bool is never a number
_MISTYPED = {str: 5, int: "5", float: True, bool: 1}


def _mistyped_field_cases():
    """One wrong-JSON-type value per config field, so a field added later is checked too."""
    hints = typing.get_type_hints(PipelineConfig)
    for f in dataclasses.fields(PipelineConfig):
        annotation = hints[f.name]
        if typing.get_origin(annotation) is tuple:
            value = "nasty_nice"  # a string where a list belongs
        elif issubclass(annotation, Enum):
            value = 1
        else:
            value = _MISTYPED[annotation]
        yield pytest.param({f.name: value}, f"^{f.name} must be ", id=f"mistyped-{f.name}")


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
        ({"seed": True}, "seed"),
        ({"k": 4.0}, "k"),
        ({"min_df": float("nan")}, "min_df"),
        ({"bootstrap_refit": 0}, "bootstrap_refit"),
        ({"estimators": "q"}, "estimators"),
        ({"aipw_variant": "robust"}, "aipw_variant"),
        ({"bootstrap_replicates": 2.5}, "bootstrap_replicates"),
        ({"folds": "5"}, "folds"),
        ({"clip_epsilon": "a"}, "clip_epsilon"),
        ({"reply_types": "nasty_nice"}, "reply_types"),
        ({"reply_types": ["nasty"]}, "reply_types"),
        # every run uses the topic cache, so a config naming use_cache is refused
        ({"use_cache": 1}, "use_cache"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**63}, "seed"),
        ({"bootstrap_replicates": 1}, "bootstrap_replicates"),
        ({"lda_max_iters": 0}, "lda_max_iters"),
        ({"lda_tol": -1.0}, "lda_tol"),
        ({"lda_tol": 0.0}, "lda_tol"),
        ({"reply_types": ("nasty_nice", "nasty_nice")}, "reply_types"),
        ({"category_types": ("positive_sentiment", "positive_sentiment")}, "category_types"),
        ({"confounder_variants": ("full", "full")}, "confounder_variants"),
        ({"estimators": ("q", "q")}, "estimators"),
        ({"max_df": 1.5}, "max_df"),
        *_mistyped_field_cases(),
        # only "" or null selects the shipped file
        pytest.param({"lexicon_path": False}, "^lexicon_path must be a str", id="lexicon-false"),
        pytest.param({"lexicon_path": 0}, "^lexicon_path must be a str", id="lexicon-0"),
        pytest.param({"lexicon_path": []}, "^lexicon_path must be a str", id="lexicon-list"),
        pytest.param({"grouping_path": {}}, "^grouping_path must be a str", id="grouping-dict"),
        # every cell's outcome design is rank deficient without a ridge
        pytest.param({"outcome_ridge": 0.0}, "^outcome_ridge must be positive, got 0.0$",
                     id="outcome-ridge-0"),
    ],
)
def test_config_validation_rejects(overrides, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict({**_BASE, **overrides}).validate()


def test_config_from_dict_rejects_unknown_and_missing():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({
            "posts_path": "p", "annotations_path": "a", "out_dir": "o",
            "seed": 1, "mystery_knob": 3,
        })
    with pytest.raises(ConfigError, match="out_dir"):
        config_from_dict({"posts_path": "p", "annotations_path": "a", "seed": 1})
    # every run uses the topic cache, so no field turns it off
    with pytest.raises(ConfigError, match=re.escape("unknown config fields: ['use_cache']")):
        config_from_dict({
            "posts_path": "p", "annotations_path": "a", "out_dir": "o",
            "seed": 1, "use_cache": 1,
        })


def test_config_roundtrip_and_overrides(tmp_path):
    config = _minimal(k=12, reply_types=("nasty_nice",))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
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


def test_structured_document_keys_are_sorted():
    text = render_report(_sample_report())
    document = json.loads(text)
    assert document["format"] == "tonefx-report"
    assert document["version"] == REPORT_FORMAT_VERSION
    assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_parse_report_rejects_foreign_documents():
    with pytest.raises(ReportError, match="invalid JSON"):
        parse_report("{nope")
    document = json.loads(render_report(_sample_report()))
    document["version"] = "2.0"
    with pytest.raises(ReportError, match="version"):
        parse_report(json.dumps(document))
    document["version"] = REPORT_FORMAT_VERSION
    document["format"] = "other"
    with pytest.raises(ReportError, match="not a tonefx-report document"):
        parse_report(json.dumps(document))


@pytest.mark.parametrize(
    "block,field,value",
    [
        ("estimates", "psi", "large"),
        ("estimates", "psi", None),
        ("estimates", "psi", True),
        ("estimates", "standard_error", "0.1"),
        ("estimates", "n", 48.0),
        ("estimates", "n", False),
        ("estimates", "reply_type", 3),
        ("cv", "rmse_q1", [0.1, "0.2"]),
        ("cv", "f1", 0.6),
        ("cv", "fold_count", "5"),
        ("cv", "skipped_folds", [1]),
        ("estimates", "aipw_variant", "robust"),
        ("estimates", "category_type", "abc"),
        ("cv", "category_type", "Linguistic_Style"),
    ],
)
def test_parse_report_rejects_mistyped_values(block, field, value):
    # a library caller gets a ReportError from the parse, not a bare error
    # from a later rendering
    document = json.loads(render_report(_sample_report()))
    document[block][0][field] = value
    with pytest.raises(ReportError, match=f"malformed report entry: .*{field}"):
        parse_report(json.dumps(document))


@pytest.mark.parametrize(
    "block,value,shape",
    [
        ("warnings", "abc", "a list of strings"),
        ("warnings", [1], "a list of strings"),
        ("failed_cells", "(a, b, c)", "a list of strings"),
        ("failed_cells", [None], "a list of strings"),
        ("topics", [], "an object of lists of lists of strings"),
        ("topics", {"evolution": ["a"]}, "an object of lists of lists of strings"),
        ("topics", {"evolution": [[1]]}, "an object of lists of lists of strings"),
        ("triple_counts", {"nasty_nice": 48}, "an object of objects"),
        ("triple_counts", [], "an object of objects"),
        ("config", [], "an object"),
    ],
)
def test_parse_report_rejects_misshapen_blocks(block, value, shape):
    # a string of warnings would otherwise render one warning per character
    document = json.loads(render_report(_sample_report()))
    document[block] = value
    with pytest.raises(ReportError, match=f"^malformed report entry: '{block}' must be {shape}$"):
        parse_report(json.dumps(document))


def test_parse_report_takes_integers_and_nan_as_numbers():
    document = json.loads(render_report(_sample_report()))
    document["estimates"][0].update(psi=-1, standard_error=float("nan"))
    document["cv"][0]["f1"] = [1, 0, 1, 1, 0]
    report = parse_report(json.dumps(document))
    assert report.estimates[0].psi == -1 and report.cv_reports[0].f1 == (1, 0, 1, 1, 0)
    assert render_report(report, fmt="table")


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


def test_delimited_matches_golden():
    # pins the column order and the cell spelling of report.csv
    expected = GOLDEN_CSV.read_text(encoding="utf-8")
    assert render_report(_sample_report(), fmt="delimited") == expected


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
