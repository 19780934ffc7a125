"""Run reports: a structured record of one pipeline run and its renderings.

The structured rendering is versioned JSON with sorted keys and
repr-fidelity floats, so equal runs serialize to identical bytes and
parse back without loss.  Timing information varies run to run and is
never written, keeping report bodies comparable across reruns of the
same config and seed.

The table rendering is a plain-text summary with one block per reply
type and confounder variant: estimator rows, category-type columns,
cells formatted as "point (standard error)" with a trailing star when
the 95 percent normal interval excludes zero.  The delimited rendering
is one CSV row per estimate for spreadsheet import.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..corpus import Triple
from ..estimators import AteEstimate, Estimator
from ..inference import CvReport
from ..lexicon import CategoryType
from .records import check_format, decode_json, json_record, record_values

REPORT_FORMAT = "tonefx-report"
REPORT_FORMAT_VERSION = "1.0"

# report.csv's columns in their published order, which is not AteEstimate's
_CSV_COLUMNS = (
    "estimator", "reply_type", "category_type", "confounder_variant", "aipw_variant",
    "psi", "standard_error", "n", "significant",
)

CATEGORY_LABELS = {
    CategoryType.POSITIVE_SENTIMENT: "Pos. sentiment",
    CategoryType.NEGATIVE_SENTIMENT: "Neg. sentiment",
    CategoryType.LINGUISTIC_STYLE: "Ling. style",
}


_CATEGORY_VALUES = tuple(ctype.value for ctype in CategoryType)


class ReportError(ValueError):
    """Malformed or unsupported report document."""


def triple_summary(triples: Sequence[Triple]) -> dict[str, Any]:
    """Count block for one reply type's extracted triples."""
    treated = sum(t.treatment for t in triples)
    per_topic: dict[str, int] = {}
    for t in triples:
        per_topic[t.debate_topic] = per_topic.get(t.debate_topic, 0) + 1
    return {
        "total": len(triples),
        "treated": treated,
        "control": len(triples) - treated,
        "per_topic": dict(sorted(per_topic.items())),
    }


@dataclass(eq=False)
class RunReport:
    """Everything a pipeline run reports, ready for rendering."""

    config: dict[str, Any]
    triple_counts: dict[str, dict[str, Any]] = field(default_factory=dict)
    cv_reports: list[CvReport] = field(default_factory=list)
    estimates: list[AteEstimate] = field(default_factory=list)
    topic_top_words: dict[str, list[list[str]]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    failed_cells: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


def _estimate_to_dict(est: AteEstimate) -> dict[str, Any]:
    return {**json_record(est), "significant": est.significant}


def render_report(report: RunReport, fmt: str = "structured") -> str:
    if fmt == "structured":
        return _render_structured(report)
    if fmt == "table":
        return _render_table(report)
    if fmt == "delimited":
        return _render_delimited(report)
    raise ReportError(f"unknown report format {fmt!r}")


def _render_structured(report: RunReport) -> str:
    document: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "version": REPORT_FORMAT_VERSION,
        "config": report.config,
        "triple_counts": report.triple_counts,
        "cv": [json_record(cv) for cv in report.cv_reports],
        "estimates": [_estimate_to_dict(est) for est in report.estimates],
        "topics": report.topic_top_words,
        "warnings": report.warnings,
        "failed_cells": report.failed_cells,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _object_of(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, dict) and all(map(check, value.values()))


# each block that parse_report keeps as JSON: a check of its shape, and the shape
_BLOCKS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "config": (_object_of(lambda _: True), "an object"),
    "triple_counts": (_object_of(lambda counts: isinstance(counts, dict)), "an object of objects"),
    "topics": (
        _object_of(lambda words: isinstance(words, list) and all(map(_strings, words))),
        "an object of lists of lists of strings",
    ),
    "warnings": (_strings, "a list of strings"),
    "failed_cells": (_strings, "a list of strings"),
}


def parse_report(text: bytes | str) -> RunReport:
    """Rebuild a RunReport from its structured rendering, as UTF-8 bytes or text.

    Every cv and estimates value is checked against its field's type, a
    category_type also against ``CategoryType``, and every other block
    against its shape; a fault raises a ReportError.
    """
    try:
        document = decode_json(text)
        check_format(document, REPORT_FORMAT, "version", REPORT_FORMAT_VERSION)
    except ValueError as exc:
        raise ReportError(f"report: {exc}") from exc
    try:
        cv_reports = [CvReport(**record_values(CvReport, entry))
                      for entry in _entries(document, "cv")]
        estimates = [AteEstimate(**record_values(AteEstimate, entry))
                     for entry in _entries(document, "estimates")]
        for entry in (*cv_reports, *estimates):
            if entry.category_type is not None and entry.category_type not in _CATEGORY_VALUES:
                raise ValueError(
                    f"category_type must be one of {', '.join(_CATEGORY_VALUES)} or null, "
                    f"got {entry.category_type!r}"
                )
        for key, (check, shape) in _BLOCKS.items():
            if key in document and not check(document[key]):
                raise TypeError(f"{key!r} must be {shape}")
    except (TypeError, ValueError) as exc:
        raise ReportError(f"malformed report entry: {exc}") from exc
    return RunReport(
        config=document.get("config", {}),
        triple_counts=document.get("triple_counts", {}),
        cv_reports=cv_reports,
        estimates=estimates,
        topic_top_words=document.get("topics", {}),
        warnings=document.get("warnings", []),
        failed_cells=document.get("failed_cells", []),
    )


def _entries(document: dict[str, Any], key: str) -> list[dict[str, Any]]:
    entries = document.get(key, [])
    if not isinstance(entries, list):
        raise TypeError(f"{key!r} must be a list, not {type(entries).__name__}")
    for entry in entries:
        if not isinstance(entry, dict):
            raise TypeError(f"{key!r} entry must be an object, not {type(entry).__name__}")
    return entries


def format_cell(psi: float, standard_error: float | None, significant: bool | None) -> str:
    """One table cell: point estimate, parenthesized error, significance star."""
    if standard_error is None:
        return f"{psi:.1f} (-)"
    star = "*" if significant else ""
    return f"{psi:.1f} ({standard_error:.1f}){star}"


def _layout(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def _render_table(report: RunReport) -> str:
    lines: list[str] = ["treatment effect estimates", "=========================="]

    if report.triple_counts:
        lines += ["", "triples"]
        rows = [["reply type", "total", "treated", "control"]]
        for reply_type, counts in report.triple_counts.items():
            rows.append(
                [
                    reply_type,
                    str(counts.get("total", "")),
                    str(counts.get("treated", "")),
                    str(counts.get("control", "")),
                ]
            )
        lines += _layout(rows)

    if report.cv_reports:
        lines += ["", "cross-validated nuisance fit"]
        rows = [["reply type", "confounders", "outcome", "folds", "f1", "rmse q0", "rmse q1"]]
        for cv in report.cv_reports:
            rows.append(
                [
                    cv.reply_type or "-",
                    cv.variant or "-",
                    cv.category_type or "-",
                    str(cv.fold_count),
                    f"{cv.mean_f1:.2f}",
                    f"{cv.mean_rmse_q0:.4f}",
                    f"{cv.mean_rmse_q1:.4f}",
                ]
            )
        lines += _layout(rows)

    blocks: dict[tuple[str, str], list[AteEstimate]] = {}
    for est in report.estimates:
        key = (est.reply_type or "-", est.confounder_variant or "-")
        blocks.setdefault(key, []).append(est)
    for (reply_type, variant), block in blocks.items():
        n = block[0].n
        lines += ["", f"reply type: {reply_type} | confounders: {variant} | n={n}"]
        categories: list[str] = []
        for est in block:
            label = est.category_type or "-"
            if label not in categories:
                categories.append(label)
        order = [e.value for e in Estimator]
        estimators = sorted(
            {est.estimator for est in block},
            key=lambda e: order.index(e.value),
        )
        header = ["estimator"] + [
            CATEGORY_LABELS.get(CategoryType(c), c) if c != "-" else "-" for c in categories
        ]
        rows = [header]
        lookup = {(est.estimator, est.category_type or "-"): est for est in block}
        for estimator in estimators:
            row = [estimator.value]
            for category in categories:
                est = lookup.get((estimator, category))
                row.append(
                    format_cell(est.psi, est.standard_error, est.significant) if est else "-"
                )
            rows.append(row)
        lines += _layout(rows)

    if report.warnings:
        lines += ["", "warnings"]
        lines += [f"- {w}" for w in report.warnings]
    return "\n".join(lines) + "\n"


def _csv_cell(value: Any) -> Any:
    """None as an empty cell and booleans as in JSON; csv writes floats by repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else value


def _render_delimited(report: RunReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for est in report.estimates:
        row = _estimate_to_dict(est)
        writer.writerow([_csv_cell(row[column]) for column in _CSV_COLUMNS])
    return buffer.getvalue()
